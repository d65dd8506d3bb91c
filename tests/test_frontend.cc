// Unit tests of the frontend Session layer (frontend/session.h): every
// command including its error paths, script execution, service-backed
// dispatch, and the workload->script replay round-trip. The Session is
// pure request/response — no I/O — so these tests pin the exact payload
// strings the transports (aqvsh, the TCP server) and the docs doctest
// harness rely on.

#include <fstream>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "frontend/replay.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "service/service.h"
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
  for (const char* cmd : {"view", "query", "fact", "load", "show",
                          "rewrite", "answer", "explain", "reset", "quit"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd;
  }
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
  // The session ran its engine calls against the service's oracle.
  EXPECT_GT(service.oracle().stats().lookups(), 0u);
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

}  // namespace
}  // namespace aqv
