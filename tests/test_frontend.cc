// Unit tests of the frontend Session layer (frontend/session.h): every
// command including its error paths, script execution, service-backed
// dispatch, the rewrite memo, and the workload->script replay round-trip.
// The Session is pure request/response — no I/O — so these tests pin the
// exact payload strings the transports (aqvsh, the TCP server) and the
// docs doctest harness rely on.

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "frontend/replay.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "service/service.h"
#include "storage/fs.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// The running example: one view, a chain query, three facts.
void LoadToyProblem(Session& session) {
  ASSERT_TRUE(
      session.Execute("view v(X, Y) :- edge(X, Y), checked(Y).").ok());
  ASSERT_TRUE(
      session
          .Execute("query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).")
          .ok());
  ASSERT_TRUE(session.Execute("fact edge(1, 2).").ok());
  ASSERT_TRUE(session.Execute("fact checked(2).").ok());
  ASSERT_TRUE(session.Execute("fact edge(2, 3).").ok());
}

TEST(SessionTest, BlankAndCommentLinesAreNoops) {
  Session session;
  for (const char* line : {"", "   ", "\t", "% comment", "# comment"}) {
    CommandResult r = session.Execute(line);
    EXPECT_TRUE(r.ok()) << line;
    EXPECT_TRUE(r.output.empty());
    EXPECT_FALSE(r.quit);
  }
  EXPECT_EQ(session.commands_executed(), 0u);
}

TEST(SessionTest, UnknownCommandFails) {
  Session session;
  CommandResult r = session.Execute("frobnicate");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status.message(), "unknown command 'frobnicate' (try 'help')");
}

TEST(SessionTest, HelpListsEveryCommand) {
  Session session;
  CommandResult r = session.Execute("help");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output,
            "commands:\n"
            "  view <rule(s)>    add view definition(s), e.g. view v(X) :- "
            "e(X, Y).\n"
            "  query <rule(s)>   set the query (several rules = a union "
            "query)\n"
            "  fact <atom>.      add a ground fact, e.g. fact e(1, 2).\n"
            "  load <path>       run a script of commands from a file\n"
            "  show views|facts|engines|stats\n"
            "  rewrite [with <engine>]\n"
            "  answer [route <route>] [with <engine>]\n"
            "  explain           cost-rank every equivalent plan\n"
            "  save <dir>        snapshot the session into a database "
            "directory\n"
            "  open <dir>        load a database directory (snapshot + "
            "journal)\n"
            "  reset             drop views, facts, and the query (detaches "
            "the store)\n"
            "  help              this text\n"
            "  quit              end the session\n"
            "engines: lmss, bucket, minicon, ucq\n"
            "routes: direct, complete, inverse-rules, cost");
  // Trailing words are ignored.
  EXPECT_EQ(session.Execute("help me").output, r.output);
}

TEST(SessionTest, QuitAndExitEndTheSession) {
  Session session;
  EXPECT_TRUE(session.Execute("quit").quit);
  EXPECT_TRUE(session.Execute("exit").quit);
  EXPECT_FALSE(session.Execute("help").quit);
}

TEST(SessionTest, ViewAddsAndShows) {
  Session session;
  EXPECT_EQ(session.Execute("show views").output, "(none)");
  CommandResult r = session.Execute("view v(X) :- e(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "added view v");
  EXPECT_EQ(session.views().size(), 1);
  EXPECT_EQ(session.Execute("show views").output, "v(X) :- e(X, Y).");
}

TEST(SessionTest, ViewAcceptsMultipleRulesOnOneLine) {
  Session session;
  CommandResult r =
      session.Execute("view v1(X) :- e(X, Y). v2(Y) :- e(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "added view v1\nadded view v2");
  EXPECT_EQ(session.views().size(), 2);
}

TEST(SessionTest, ViewSecondRuleIsAUnionSource) {
  Session session;
  ASSERT_TRUE(session.Execute("view v(X) :- a(X).").ok());
  CommandResult r = session.Execute("view v(X) :- b(X).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "added rule 2 for view v (union source)");
  EXPECT_TRUE(session.views().HasUnionSources());
}

TEST(SessionTest, ViewParseErrorReportsOffset) {
  Session session;
  CommandResult r = session.Execute("view v(X :- e(X).");
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
  EXPECT_EQ(session.views().size(), 0);
}

TEST(SessionTest, ViewOverFactPredicateFails) {
  Session session;
  ASSERT_TRUE(session.Execute("fact e(1).").ok());
  CommandResult r = session.Execute("view e(X) :- f(X).");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // The predicate must survive as a fact target (kind restored).
  EXPECT_TRUE(session.Execute("fact e(2).").ok());
}

TEST(SessionTest, ViewMultiRuleFailureIsAllOrNothing) {
  Session session;
  ASSERT_TRUE(session.Execute("fact p(1).").ok());
  ASSERT_TRUE(session.Execute("fact r(1).").ok());
  CommandResult bad =
      session.Execute("view a(X) :- e(X). p(X) :- e(X). r(X) :- e(X).");
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  // Nothing was committed: no view (not even the valid first rule), and
  // every head predicate of the failed command still accepts facts.
  EXPECT_EQ(session.views().size(), 0);
  EXPECT_TRUE(session.Execute("fact p(2).").ok());
  EXPECT_TRUE(session.Execute("fact r(2).").ok());
  EXPECT_TRUE(session.Execute("fact a(1).").ok());
}

TEST(SessionTest, ViewSelfReferenceRollsBackKinds) {
  Session session;
  CommandResult bad = session.Execute("view v(X) :- v(X).");
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.Execute("fact v(1).").ok());
}

TEST(SessionTest, QueryOverFactPredicateFails) {
  Session session;
  ASSERT_TRUE(session.Execute("fact q(1).").ok());
  CommandResult bad = session.Execute("query q(X) :- e(X).");
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status.message().find("already has facts"),
            std::string::npos);
  // The predicate survives as a fact target.
  EXPECT_TRUE(session.Execute("fact q(2).").ok());
  EXPECT_FALSE(session.query().has_value());
}

TEST(SessionTest, QueryMismatchedHeadsRollsBackKinds) {
  Session session;
  CommandResult bad = session.Execute("query q(X) :- a(X). p(X) :- b(X).");
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.Execute("fact q(1).").ok());
  EXPECT_TRUE(session.Execute("fact p(1).").ok());
}

TEST(SessionTest, ResetKeepsOracleSafeAndUsable) {
  ContainmentOracle oracle;
  SessionOptions options;
  options.engine.oracle = &oracle;
  Session session(options);
  LoadToyProblem(session);
  ASSERT_TRUE(session.Execute("rewrite with lmss").ok());
  uint64_t lookups_before = oracle.stats().lookups();
  EXPECT_GT(lookups_before, 0u);
  ASSERT_TRUE(session.Execute("reset").ok());
  // The retired catalog stays alive (see Session::retired_catalogs_), so
  // the oracle's old entries can never match a reused address; a fresh
  // problem keeps working against the same oracle.
  LoadToyProblem(session);
  ASSERT_TRUE(session.Execute("rewrite with lmss").ok());
  EXPECT_GT(oracle.stats().lookups(), lookups_before);
}

TEST(SessionTest, QuerySetAndReplace) {
  Session session;
  CommandResult r = session.Execute("query q(X) :- e(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "query set: q(X) :- e(X, Y).");
  ASSERT_TRUE(session.query().has_value());
  EXPECT_EQ(session.query()->size(), 1);
  ASSERT_TRUE(session.Execute("query q(X) :- f(X).").ok());
  EXPECT_EQ(session.query()->disjuncts[0].body()[0].pred,
            session.catalog().FindPredicate("f").value());
}

TEST(SessionTest, QueryUnionDisjuncts) {
  Session session;
  CommandResult r = session.Execute("query q(X) :- a(X). q(X) :- b(X).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output,
            "query set (2 disjuncts):\n  q(X) :- a(X).\n  q(X) :- b(X).");
  EXPECT_EQ(session.query()->size(), 2);
}

TEST(SessionTest, QueryMismatchedHeadsFail) {
  Session session;
  CommandResult r = session.Execute("query q(X) :- a(X). p(X) :- b(X).");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session.query().has_value());
}

TEST(SessionTest, QueryParseErrorKeepsOldQuery) {
  Session session;
  ASSERT_TRUE(session.Execute("query q(X) :- e(X, Y).").ok());
  CommandResult r = session.Execute("query q(X :- broken");
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(session.query().has_value());
  EXPECT_EQ(session.query()->disjuncts[0].ToString(), "q(X) :- e(X, Y).");
}

TEST(SessionTest, FactAddsTuplesAndCounts) {
  Session session;
  EXPECT_EQ(session.Execute("fact e(1, 2).").output, "ok (1 fact total)");
  EXPECT_EQ(session.Execute("fact e(2, 3).").output, "ok (2 facts total)");
  EXPECT_EQ(session.base().TotalTuples(), 2u);
  EXPECT_EQ(session.Execute("show facts").output, "e: 2 tuples");
}

TEST(SessionTest, FactRejectsVariables) {
  Session session;
  CommandResult r = session.Execute("fact e(X, 2).");
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
  EXPECT_NE(r.status.message().find("ground"), std::string::npos);
}

TEST(SessionTest, FactRejectsViewPredicate) {
  Session session;
  ASSERT_TRUE(session.Execute("view v(X) :- e(X).").ok());
  CommandResult r = session.Execute("fact v(1).");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("intensional"), std::string::npos);
}

TEST(SessionTest, FactArityMismatchFails) {
  Session session;
  ASSERT_TRUE(session.Execute("fact e(1, 2).").ok());
  CommandResult r = session.Execute("fact e(1).");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ShowEnginesListsRegistryWithDefault) {
  Session session;
  CommandResult r = session.Execute("show engines");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "lmss\nbucket\nminicon (default)\nucq");
}

TEST(SessionTest, ShowUnknownTargetFails) {
  Session session;
  CommandResult r = session.Execute("show bogus");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, RewriteRequiresQueryAndViews) {
  Session session;
  EXPECT_EQ(session.Execute("rewrite").status.message(),
            "set a query first");
  ASSERT_TRUE(session.Execute("query q(X) :- e(X).").ok());
  EXPECT_EQ(session.Execute("rewrite").status.message(),
            "add at least one view first");
}

TEST(SessionTest, RewriteDefaultEngineMiniCon) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("rewrite");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("engine minicon:"), std::string::npos);
  EXPECT_NE(r.output.find("rewritings=1"), std::string::npos);
}

TEST(SessionTest, RewriteWithLmssReportsNoEquivalent) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("rewrite with lmss");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "engine lmss: equivalent=no, rewritings=0");
}

TEST(SessionTest, RewriteWithLmssFindsWitness) {
  Session session;
  ASSERT_TRUE(session.Execute("view v(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Execute("query q(X, Y) :- e(X, Y).").ok());
  CommandResult r = session.Execute("rewrite with lmss");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("equivalent=yes"), std::string::npos);
  EXPECT_NE(r.output.find("v("), std::string::npos);
}

TEST(SessionTest, RewriteUnknownEngineFails) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("rewrite with bogus");
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST(SessionTest, UnknownEngineIsNotAPlanCacheLookup) {
  RewritePlanCache plan_cache;
  SessionOptions options;
  options.plan_cache = &plan_cache;
  Session cached(options);
  Session plain;
  LoadToyProblem(cached);
  LoadToyProblem(plain);
  std::string refused = RenderWireResponse(plain.Execute("rewrite with bogus"));
  EXPECT_EQ(refused, "err NotFound: no rewriting engine named 'bogus'\n");
  EXPECT_EQ(RenderWireResponse(cached.Execute("rewrite with bogus")), refused);
  EXPECT_EQ(plan_cache.stats().hits, 0u);
  EXPECT_EQ(plan_cache.stats().misses, 0u);
  // A real engine run still misses once, then hits; the refusal moves
  // neither count.
  ASSERT_TRUE(cached.Execute("rewrite").ok());
  ASSERT_TRUE(cached.Execute("rewrite").ok());
  EXPECT_EQ(RenderWireResponse(cached.Execute("rewrite with bogus")), refused);
  EXPECT_EQ(plan_cache.stats().misses, 1u);
  EXPECT_EQ(plan_cache.stats().hits, 1u);
}

TEST(SessionTest, RewriteUsageErrors) {
  Session session;
  LoadToyProblem(session);
  EXPECT_EQ(session.Execute("rewrite quickly").status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Execute("answer sideways").status.code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, AnswerDirectMatchesGroundTruth) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("answer route direct");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "route direct: 1 answer (exact)\n(1, 3)");
}

TEST(SessionTest, AnswerDefaultRouteIsCertain) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("answer");
  ASSERT_TRUE(r.ok());
  // No equivalent rewriting exists here, so the certain answers under
  // sound views are empty — strictly weaker than the direct (1, 3).
  EXPECT_EQ(r.output, "route complete (engine minicon): 0 answers (certain)");
}

TEST(SessionTest, AnswerInverseRulesAgreesWithComplete) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("answer route inverse-rules");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "route inverse-rules: 0 answers (certain)");
}

TEST(SessionTest, AnswerCostRouteExecutesCheapestPlan) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("answer route cost");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("route cost"), std::string::npos);
  EXPECT_NE(r.output.find("(1, 3)"), std::string::npos);
}

TEST(SessionTest, AnswerUnknownRouteOrEngineFails) {
  Session session;
  LoadToyProblem(session);
  EXPECT_EQ(session.Execute("answer route bogus").status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.Execute("answer with bogus").status.code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, AnswerDirectWithoutViewsWorks) {
  Session session;
  ASSERT_TRUE(session.Execute("query q(X) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Execute("fact e(7, 8).").ok());
  CommandResult r = session.Execute("answer route direct");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "route direct: 1 answer (exact)\n(7)");
}

TEST(SessionTest, ExplainRanksPlans) {
  Session session;
  ASSERT_TRUE(session.Execute("view v(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Execute("query q(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Execute("fact e(1, 2).").ok());
  CommandResult r = session.Execute("explain");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("plans ("), std::string::npos);
  EXPECT_NE(r.output.find("chosen: ["), std::string::npos);
  EXPECT_NE(r.output.find("engine=direct"), std::string::npos);
}

TEST(SessionTest, ExplainRejectsUnionQueries) {
  Session session;
  ASSERT_TRUE(session.Execute("view v(X) :- a(X).").ok());
  ASSERT_TRUE(session.Execute("query q(X) :- a(X). q(X) :- b(X).").ok());
  EXPECT_EQ(session.Execute("explain").status.code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, ResetDropsEverything) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("reset");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "session reset");
  EXPECT_TRUE(session.views().empty());
  EXPECT_FALSE(session.query().has_value());
  EXPECT_EQ(session.base().TotalTuples(), 0u);
  EXPECT_EQ(session.Execute("show views").output, "(none)");
  EXPECT_EQ(session.Execute("show facts").output, "(none)");
  // The fresh catalog accepts the old names at new arities.
  EXPECT_TRUE(session.Execute("fact edge(1).").ok());
}

TEST(SessionTest, ShowStatsCountsState) {
  Session session;
  LoadToyProblem(session);
  CommandResult r = session.Execute("show stats");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("commands=6"), std::string::npos);
  EXPECT_NE(r.output.find("views=1"), std::string::npos);
  EXPECT_NE(r.output.find("facts=3"), std::string::npos);
  EXPECT_NE(r.output.find("query=1 disjunct(s)"), std::string::npos);
  EXPECT_NE(r.output.find("last rewrite: candidates=0"), std::string::npos);
  // No oracle, no service: neither optional line appears.
  EXPECT_EQ(r.output.find("oracle:"), std::string::npos);
  EXPECT_EQ(r.output.find("service:"), std::string::npos);
}

TEST(SessionTest, ShowStatsSurfacesOracle) {
  ContainmentOracle oracle;
  SessionOptions options;
  options.engine.oracle = &oracle;
  Session session(options);
  LoadToyProblem(session);
  ASSERT_TRUE(session.Execute("rewrite with lmss").ok());
  CommandResult r = session.Execute("show stats");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.output.find("oracle: hits="), std::string::npos);
  EXPECT_GT(oracle.stats().lookups(), 0u);
}

TEST(SessionTest, StatsAliasRendersShowStatsBytes) {
  ContainmentOracle oracle;
  RewritePlanCache plan_cache;
  SessionOptions options;
  options.engine.oracle = &oracle;
  options.plan_cache = &plan_cache;
  Session session(options);
  LoadToyProblem(session);
  ASSERT_TRUE(session.Execute("rewrite with lmss").ok());
  CommandResult show = session.Execute("show stats");
  CommandResult alias = session.Execute("STATS");
  ASSERT_TRUE(show.ok());
  ASSERT_TRUE(alias.ok());
  // The command counter counts each stats command itself (7, then 8);
  // every other byte is the same.
  std::string expected = show.output;
  size_t counter = expected.find("commands=7 ");
  ASSERT_NE(counter, std::string::npos) << expected;
  expected.replace(counter, 10, "commands=8");
  EXPECT_EQ(alias.output, expected);
  EXPECT_NE(alias.output.find("plan_cache: hits="), std::string::npos);
}

TEST(SessionTest, RenderWireResponseMatchesProtocol) {
  CommandResult ok_result;
  ok_result.output = "added view v";
  EXPECT_EQ(RenderWireResponse(ok_result), "added view v\nok\n");
  CommandResult empty;
  EXPECT_EQ(RenderWireResponse(empty), "ok\n");
  CommandResult err;
  err.status = Status::InvalidArgument("nope");
  EXPECT_EQ(RenderWireResponse(err), "err InvalidArgument: nope\n");
}

TEST(SessionTest, TranscriptLinesRendering) {
  CommandResult ok;
  ok.output = "added view v";
  EXPECT_EQ(TranscriptLines(ok), "added view v");
  CommandResult err;
  err.status = Status::InvalidArgument("boom");
  EXPECT_EQ(TranscriptLines(err), "error: InvalidArgument: boom");
  err.output = "partial";
  EXPECT_EQ(TranscriptLines(err), "partial\nerror: InvalidArgument: boom");
}

TEST(SessionTest, ExecuteScriptStopsAtQuit) {
  Session session;
  std::vector<CommandResult> results = session.ExecuteScript(
      "view v(X) :- e(X).\nquit\nfact e(1).\n");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].quit);
  EXPECT_EQ(session.base().TotalTuples(), 0u);
}

TEST(SessionTest, ExecuteScriptCollectsErrorsAndContinues) {
  Session session;
  std::vector<CommandResult> results =
      session.ExecuteScript("bogus\nfact e(1).\nbroken(\nfact e(2).");
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  EXPECT_EQ(session.base().TotalTuples(), 2u);
}

TEST(SessionTest, LoadRunsAScriptFile) {
  std::string path = testing::TempDir() + "/aqv_load_test.aqv";
  {
    std::ofstream out(path);
    out << "% comment\nview v(X) :- e(X, Y).\nfact e(1, 2).\n";
  }
  Session session;
  CommandResult r = session.Execute("load " + path);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.output.find("added view v"), std::string::npos);
  EXPECT_NE(r.output.find("loaded " + path + " (2 commands, 0 errors)"),
            std::string::npos);
  EXPECT_EQ(session.views().size(), 1);
}

TEST(SessionTest, LoadReportsPerLineErrors) {
  std::string path = testing::TempDir() + "/aqv_load_errors.aqv";
  {
    std::ofstream out(path);
    out << "fact e(1).\nbogus\n";
  }
  Session session;
  CommandResult r = session.Execute("load " + path);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.output.find(path + ":2: error:"), std::string::npos);
  EXPECT_NE(r.output.find("(2 commands, 1 error)"), std::string::npos);
  EXPECT_EQ(session.base().TotalTuples(), 1u);  // the good line ran
}

TEST(SessionTest, LoadMissingFileAndDisabled) {
  Session session;
  EXPECT_EQ(session.Execute("load /nonexistent/x.aqv").status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.Execute("load").status.code(),
            StatusCode::kInvalidArgument);
  SessionOptions options;
  options.enable_load = false;
  Session server_side(options);
  EXPECT_EQ(server_side.Execute("load x").status.code(),
            StatusCode::kUnimplemented);
}

TEST(SessionTest, LoadDepthCapStopsRecursion) {
  std::string path = testing::TempDir() + "/aqv_load_self.aqv";
  {
    std::ofstream out(path);
    out << "load " << path << "\n";
  }
  Session session;
  CommandResult r = session.Execute("load " + path);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.output.find("ResourceExhausted"), std::string::npos);
}

TEST(SessionTest, ServiceBackedSessionProducesIdenticalPayloads) {
  RewriteService service;
  SessionOptions backed;
  backed.service = &service;
  Session with_service(backed);
  Session without_service;
  const char* script[] = {
      "view v(X, Y) :- edge(X, Y), checked(Y).",
      "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
      "fact edge(1, 2).",  "fact checked(2).", "fact edge(2, 3).",
      "rewrite with lmss", "rewrite",          "answer route direct",
      "answer",            "answer route cost"};
  for (const char* line : script) {
    CommandResult a = with_service.Execute(line);
    CommandResult b = without_service.Execute(line);
    EXPECT_EQ(a.status.code(), b.status.code()) << line;
    EXPECT_EQ(a.output, b.output) << line;
  }
  // The session ran every command inline: none reached the service's pool.
  EXPECT_EQ(service.lifetime_stats().requests, 0u);
}

// --- the rewrite memo --------------------------------------------------

/// A database directory for save/open, named per process and emptied on
/// both ends (a store directory holds only files).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_("memo_" + tag + "_" + std::to_string(::getpid())) {
    Wipe();
  }
  ~ScratchDir() { Wipe(); }

  const std::string& path() const { return path_; }

 private:
  void Wipe() {
    auto names = ListDir(path_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        // Best-effort scratch cleanup; a leftover file fails the next run.
        AQV_DISCARD_STATUS(RemoveFile(path_ + "/" + name));
      }
    }
    ::rmdir(path_.c_str());
  }

  std::string path_;
};

TEST(SessionMemoTest, EveryProblemChangeDropsTheMemo) {
  // Each command the table marks as changing the problem, between two
  // `rewrite with lmss` lines. `DIR` stands for each session's own store
  // directory (two sessions of one process cannot lock the same one).
  struct Case {
    std::vector<std::string> prefix;
    std::string command;
  };
  const std::vector<Case> cases = {
      {{}, "view w(X) :- edge(X, X)."},
      {{}, "query q(X) :- edge(X, Y), checked(Y)."},
      {{}, "fact edge(3, 4)."},
      {{}, "reset"},
      {{"save DIR"}, "open DIR"},
      {{}, "view broken("},
  };
  const std::string rewrite = "rewrite with lmss";
  for (const Case& c : cases) {
    ScratchDir cached_dir("cached"), plain_dir("plain"), fresh_dir("fresh");
    auto in = [](const std::string& line, const ScratchDir& dir) {
      size_t at = line.find("DIR");
      return at == std::string::npos
                 ? line
                 : line.substr(0, at) + dir.path() + line.substr(at + 3);
    };
    RewritePlanCache plan_cache;
    SessionOptions options;
    options.plan_cache = &plan_cache;
    // `cached` answers from its memo and the plan cache; `plain` runs the
    // same script with no plan cache; `fresh` skips the first rewrite, so
    // it has nothing to remember.
    Session cached(options), plain, fresh;
    for (auto [session, dir] : {std::pair{&cached, &cached_dir},
                                std::pair{&plain, &plain_dir},
                                std::pair{&fresh, &fresh_dir}}) {
      LoadToyProblem(*session);
      for (const std::string& line : c.prefix) {
        ASSERT_TRUE(session->Execute(in(line, *dir)).ok()) << line;
      }
    }
    std::string first = RenderWireResponse(cached.Execute(rewrite));
    EXPECT_EQ(RenderWireResponse(plain.Execute(rewrite)), first);
    EXPECT_TRUE(cached.AnswersFromMemo(rewrite)) << c.command;
    CommandResult changed = cached.Execute(in(c.command, cached_dir));
    EXPECT_EQ(RenderWireResponse(plain.Execute(in(c.command, plain_dir))),
              RenderWireResponse(changed));
    EXPECT_EQ(RenderWireResponse(fresh.Execute(in(c.command, fresh_dir))),
              RenderWireResponse(changed));
    EXPECT_FALSE(cached.AnswersFromMemo(rewrite)) << c.command;
    std::string second = RenderWireResponse(cached.Execute(rewrite));
    EXPECT_EQ(second, RenderWireResponse(plain.Execute(rewrite)))
        << c.command;
    EXPECT_EQ(second, RenderWireResponse(fresh.Execute(rewrite)))
        << c.command;
  }
}

TEST(SessionMemoTest, MemoAnswerCountsOneHitAndRestoresTheCounters) {
  RewritePlanCache plan_cache;
  SessionOptions options;
  options.plan_cache = &plan_cache;
  Session session(options);
  LoadToyProblem(session);
  auto last_rewrite = [&session] {
    std::string stats = session.Execute("show stats").output;
    size_t at = stats.find("last rewrite:");
    return stats.substr(at, stats.find('\n', at) - at);
  };
  std::string first = RenderWireResponse(session.Execute("rewrite with lmss"));
  std::string lmss = last_rewrite();
  ASSERT_TRUE(session.Execute("rewrite with minicon").ok());
  ASSERT_NE(last_rewrite(), lmss);
  EXPECT_EQ(plan_cache.stats().misses, 2u);
  EXPECT_EQ(plan_cache.stats().hits, 0u);

  ASSERT_TRUE(session.AnswersFromMemo("rewrite with lmss"));
  EXPECT_EQ(RenderWireResponse(session.Execute("rewrite with lmss")), first);
  EXPECT_EQ(last_rewrite(), lmss);
  EXPECT_EQ(plan_cache.stats().hits, 1u);
  EXPECT_EQ(plan_cache.stats().misses, 2u);
  EXPECT_EQ(plan_cache.size(), 2u);
}

TEST(SessionMemoTest, MemoCheckParsesLikeRewrite) {
  Session session;
  LoadToyProblem(session);
  EXPECT_FALSE(session.AnswersFromMemo("rewrite"));
  ASSERT_TRUE(session.Execute("rewrite").ok());
  // `rewrite` and `rewrite with minicon` share the default engine's entry.
  EXPECT_TRUE(session.AnswersFromMemo("rewrite"));
  EXPECT_TRUE(session.AnswersFromMemo("  rewrite with minicon "));
  EXPECT_FALSE(session.AnswersFromMemo("rewrite with lmss"));
  EXPECT_FALSE(session.AnswersFromMemo("rewrite with bogus"));
  EXPECT_FALSE(session.AnswersFromMemo("rewrite quickly"));
  EXPECT_FALSE(session.AnswersFromMemo("rewrite with minicon twice"));
  EXPECT_FALSE(session.AnswersFromMemo("answer"));
  EXPECT_FALSE(session.AnswersFromMemo("show stats"));
  EXPECT_FALSE(session.AnswersFromMemo("% rewrite"));
}

TEST(SessionMemoTest, EngineErrorIsNotMemoized) {
  RewritePlanCache plan_cache;
  SessionOptions options;
  options.plan_cache = &plan_cache;
  options.engine.bucket.max_combinations = 1;
  Session session(options);
  LoadToyProblem(session);
  // Two entries in each `edge` bucket: four combinations, past the cap.
  ASSERT_TRUE(session.Execute("view w(X, Y) :- edge(X, Y).").ok());
  std::string refused =
      RenderWireResponse(session.Execute("rewrite with bucket"));
  EXPECT_EQ(refused,
            "err ResourceExhausted: bucket combinations exceeded "
            "max_combinations=1\n");
  EXPECT_FALSE(session.AnswersFromMemo("rewrite with bucket"));
  EXPECT_EQ(RenderWireResponse(session.Execute("rewrite with bucket")),
            refused);
  EXPECT_EQ(plan_cache.stats().misses, 2u);
  EXPECT_EQ(plan_cache.stats().hits, 0u);
}

// --- the held view extents ---------------------------------------------

TEST(SessionExtentsTest, EveryProblemChangeDropsTheExtents) {
  // Each command the table marks as changing the problem, between two
  // rounds of view-based answers on one session. The ground truth is a
  // fresh session that replays the same script without the first round,
  // so it materializes the extents only after the change. `DIR` stands for
  // each session's own store directory, `FILE` for a script holding one
  // fact.
  const std::string script = testing::TempDir() + "/aqv_extents_fact_" +
                             std::to_string(::getpid()) + ".aqv";
  {
    std::ofstream out(script);
    out << "fact checked(3).\n";
  }
  struct Case {
    std::vector<std::string> prefix;
    std::vector<std::string> change;
    /// The change alters the problem's answers, so extents held across it
    /// would answer wrongly.
    bool answers_change;
  };
  const std::vector<Case> cases = {
      {{}, {"view e(X, Y) :- edge(X, Y)."}, true},
      {{}, {"fact checked(3)."}, true},
      {{}, {"query p1(X) :- edge(X, Y), checked(Y)."}, true},
      {{},
       {"reset", "view a(X, Y) :- p(X, Y), p(Y, X).",
        "query r(X) :- p(X, Y), p(Y, X).", "fact p(1, 2).", "fact p(2, 1)."},
       true},
      // The store journals the `fact`; `open` recovers the saved problem
      // and replays it into a new catalog.
      {{"save DIR", "fact checked(3)."}, {"open DIR"}, false},
      {{"save DIR", "reset", "view a(X) :- p(X, X).", "query r(X) :- p(X, X).",
        "fact p(4, 4)."},
       {"open DIR"},
       true},
      {{}, {"load FILE"}, true},
      {{}, {"view broken("}, false},
      // A union query: the cost route refuses it before materializing.
      {{},
       {"query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z). "
        "q(X, Z) :- edge(X, Z)."},
       true},
  };
  const std::vector<std::string> probes = {
      "answer route complete with minicon", "answer route inverse-rules",
      "answer route cost", "explain"};
  for (const Case& c : cases) {
    ScratchDir held_dir("held"), fresh_dir("fresh");
    auto in = [&](const std::string& line, const ScratchDir& dir) {
      std::string out = line;
      for (auto [word, path] : {std::pair<std::string, std::string>{
                                    "DIR", dir.path()},
                                {"FILE", script}}) {
        size_t at = out.find(word);
        if (at != std::string::npos) out.replace(at, word.size(), path);
      }
      return out;
    };
    std::string label = c.change.front();
    Session held, fresh;
    for (auto [session, dir] :
         {std::pair{&held, &held_dir}, std::pair{&fresh, &fresh_dir}}) {
      LoadToyProblem(*session);
      for (const std::string& line : c.prefix) {
        ASSERT_TRUE(session->Execute(in(line, *dir)).ok()) << line;
      }
    }
    std::vector<std::string> before;
    for (const std::string& probe : probes) {
      before.push_back(RenderWireResponse(held.Execute(probe)));
    }
    for (const std::string& line : c.change) {
      EXPECT_EQ(RenderWireResponse(held.Execute(in(line, held_dir))),
                RenderWireResponse(fresh.Execute(in(line, fresh_dir))))
          << line;
    }
    bool changed = false;
    for (size_t i = 0; i < probes.size(); ++i) {
      std::string after = RenderWireResponse(held.Execute(probes[i]));
      EXPECT_EQ(after, RenderWireResponse(fresh.Execute(probes[i])))
          << label << " | " << probes[i];
      changed = changed || after != before[i];
    }
    EXPECT_EQ(changed, c.answers_change) << label;
  }
}

TEST(ReplayTest, ScriptFromScenarioRoundTrips) {
  for (const std::string& name : ScenarioNames()) {
    Scenario scenario =
        std::move(MakeScenarioByName(name, /*seed=*/11, /*db_size=*/40))
            .value();
    Result<std::string> script = ScriptFromScenario(scenario);
    ASSERT_TRUE(script.ok()) << name << ": " << script.status().ToString();
    Session session;
    int errors = 0;
    for (const CommandResult& r : session.ExecuteScript(*script)) {
      if (!r.ok()) {
        ++errors;
        ADD_FAILURE() << name << ": " << r.status.ToString();
      }
    }
    ASSERT_EQ(errors, 0);
    // The replayed problem answers identically to the original scenario.
    Relation expected =
        std::move(EvaluateQuery(scenario.query, scenario.base)).value();
    CommandResult direct = session.Execute("answer route direct");
    ASSERT_TRUE(direct.ok()) << name;
    std::string count = expected.size() == 1
                            ? "1 answer"
                            : std::to_string(expected.size()) + " answers";
    EXPECT_NE(direct.output.find(count + " (exact)"), std::string::npos)
        << name << "\n"
        << direct.output;
  }
}

TEST(ReplayTest, ReplayedScenarioAnswersMatchAllRoutes) {
  Scenario scenario =
      std::move(MakeScenarioByName("travel", /*seed=*/5, /*db_size=*/30))
          .value();
  Session session;
  for (const CommandResult& r :
       session.ExecuteScript(ScriptFromScenario(scenario).value())) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }
  CommandResult direct = session.Execute("answer route direct");
  CommandResult cost = session.Execute("answer route cost");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(cost.ok());
  // Same tuples whichever way the pipeline gets them (the goodflights
  // source admits an equivalent rewriting, so cost is exact).
  std::string direct_rows = direct.output.substr(direct.output.find('\n'));
  std::string cost_rows = cost.output.substr(cost.output.find('\n'));
  EXPECT_EQ(direct_rows, cost_rows);
}

TEST(ReplayTest, EngineOutputsMatchGolden) {
  // Each `### <scenario> | <command>` header of the golden file is
  // followed by the command's transcript lines.
  std::ifstream in(std::string(AQV_SOURCE_DIR) +
                   "/tests/golden/engine_outputs.txt");
  ASSERT_TRUE(in);
  struct Probe {
    std::string scenario, command, expected;
  };
  std::vector<Probe> probes;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      size_t bar = line.find(" | ");
      ASSERT_NE(bar, std::string::npos) << line;
      probes.push_back({line.substr(4, bar - 4), line.substr(bar + 3), ""});
    } else if (!probes.empty()) {
      std::string& expected = probes.back().expected;
      expected += (expected.empty() ? "" : "\n") + line;
    }
  }
  // The file pins every engine's rewrite and explain on every scenario.
  std::vector<std::string> pinned, wanted;
  for (const Probe& p : probes) {
    pinned.push_back(p.scenario + " | " + p.command);
  }
  for (const std::string& name : ScenarioNames()) {
    for (const std::string& engine : EngineNames()) {
      wanted.push_back(name + " | rewrite with " + engine);
    }
    wanted.push_back(name + " | explain");
  }
  EXPECT_EQ(pinned, wanted);

  std::unique_ptr<Session> session;
  std::string loaded;
  for (const Probe& p : probes) {
    if (p.scenario != loaded) {
      Scenario scenario =
          std::move(MakeScenarioByName(p.scenario, /*seed=*/1,
                                       /*db_size=*/20))
              .value();
      session = std::make_unique<Session>();
      for (const CommandResult& r :
           session->ExecuteScript(ScriptFromScenario(scenario).value())) {
        ASSERT_TRUE(r.ok()) << p.scenario << ": " << r.status.ToString();
      }
      loaded = p.scenario;
    }
    EXPECT_EQ(TranscriptLines(session->Execute(p.command)), p.expected)
        << p.scenario << " | " << p.command;
  }
}

}  // namespace
}  // namespace aqv
