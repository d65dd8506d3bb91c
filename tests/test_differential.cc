// Tests of the differential checking harness (testing/differential.h):
// the answer-payload parser, the mirror checker's command treatment,
// byte-compare and semantic cross-checks, the response tamperer, the
// ddmin script shrinker, and the end-to-end TCP replay loop against a
// live FrontendServer — including the harness self-test, where an
// injected fault must be caught and shrunk. CI additionally runs this
// binary under ThreadSanitizer (the tsan-service job).

#include <algorithm>
#include <string>
#include <vector>

#include "frontend/replay.h"
#include "frontend/server.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "testing/differential.h"
#include "workload/generator.h"

namespace aqv {
namespace {

const std::vector<std::string> kScript = {
    "% a hand-rolled differential script",
    "view v(X, Y) :- edge(X, Y), checked(Y).",
    "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
    "fact edge(1, 2).",
    "fact checked(2).",
    "fact edge(2, 3).",
    "rewrite with lmss",
    "answer route direct",
    "answer route inverse-rules",
    "answer route cost",
    "quit"};

TEST(ParseAnswerPayloadTest, ParsesEngineFreeHeader) {
  auto parsed = ParseAnswerPayload("route direct: 1 answer (exact)\n(1, 3)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->route, "direct");
  EXPECT_EQ(parsed->engine, "");
  EXPECT_EQ(parsed->count, 1);
  EXPECT_TRUE(parsed->exact);
  ASSERT_EQ(parsed->rows.size(), 1u);
  EXPECT_EQ(parsed->rows[0], "(1, 3)");
}

TEST(ParseAnswerPayloadTest, ParsesEngineEchoAndCertainTag) {
  auto parsed = ParseAnswerPayload(
      "route complete (engine minicon): 2 answers (certain)\n(1, 2)\n(3, 4)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->route, "complete");
  EXPECT_EQ(parsed->engine, "minicon");
  EXPECT_EQ(parsed->count, 2);
  EXPECT_FALSE(parsed->exact);
  EXPECT_EQ(parsed->rows.size(), 2u);
}

TEST(ParseAnswerPayloadTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(ParseAnswerPayload("").ok());
  EXPECT_FALSE(ParseAnswerPayload("added view v").ok());
  EXPECT_FALSE(ParseAnswerPayload("route direct: x answers (exact)").ok());
  EXPECT_FALSE(ParseAnswerPayload("route direct: 1 answer").ok());
  // Count noun must agree with the count.
  EXPECT_FALSE(ParseAnswerPayload("route direct: 2 answer (exact)").ok());
  // Row lines must look like tuples.
  EXPECT_FALSE(
      ParseAnswerPayload("route direct: 1 answer (exact)\nnot a row").ok());
}

TEST(DifferentialTest, ModeOfExcludesNonDeterministicCommands) {
  auto checked = [](const char* command) {
    return MirrorChecker::ModeOf(command) == Session::MirrorMode::kCompare;
  };
  EXPECT_FALSE(checked(""));
  EXPECT_FALSE(checked("% comment"));
  EXPECT_FALSE(checked("# comment"));
  EXPECT_FALSE(checked("show stats"));
  EXPECT_FALSE(checked("STATS"));
  EXPECT_FALSE(checked("load x.aqv"));
  EXPECT_TRUE(checked("show views"));
  EXPECT_TRUE(checked("answer route direct"));
  EXPECT_TRUE(checked("quit"));
  // Every verdict comes from the command table; only `auth`, which the
  // server answers before any session sees it, has no row.
  for (const Session::Command& row : Session::Commands()) {
    EXPECT_EQ(MirrorChecker::ModeOf(row.word), row.mirror) << row.word;
  }
  EXPECT_EQ(MirrorChecker::ModeOf("auth alice s3cret"),
            Session::MirrorMode::kSkip);
}

/// Feeds the checker the honest wire rendering of a second, identical
/// session — the in-process stand-in for a well-behaved server.
TEST(DifferentialTest, HonestResponsesProduceNoDivergence) {
  Session honest;
  MirrorChecker checker;
  for (const std::string& line : kScript) {
    std::string raw = RenderWireResponse(honest.Execute(line));
    auto divergence = checker.Check(line, raw);
    EXPECT_FALSE(divergence.has_value())
        << line << ": " << divergence->ToString();
  }
  EXPECT_EQ(checker.answers_checked(), 3u);
  EXPECT_EQ(checker.rewrites_checked(), 1u);
  // inverse-rules answers `(certain)`; lmss finds no equivalent rewriting
  // of this query, so the answer is held to the subset check only.
  EXPECT_EQ(checker.certain_checked(), 1u);
  EXPECT_EQ(checker.certain_held_equal(), 0u);
}

/// Rewrites repeated between mutations: every repeat is answered from the
/// memo, and each mutation changes the next rewrite's payload, so a memo
/// that survived a mutation would answer stale on both sides alike.
const std::vector<std::string> kRepeatsBetweenMutations = {
    "view v1(X, Y) :- edge(X, Y), checked(Y).",
    "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
    "rewrite",
    "rewrite",
    "rewrite with lmss",
    "view v2(X, Y) :- edge(X, Y).",
    "rewrite",
    "rewrite with minicon",
    "rewrite with lmss",
    "rewrite with lmss",
    "query q(X) :- edge(X, X).",
    "rewrite with bucket",
    "rewrite with bucket",
    "reset",
    "view v3(X) :- checked(X).",
    "query q(X) :- checked(X).",
    "rewrite",
    "rewrite",
    "quit"};

TEST(DifferentialTest, MemoAnsweredRewritesAreRederived) {
  Session honest;
  MirrorChecker checker;
  std::vector<std::string> payloads;
  for (const std::string& line : kRepeatsBetweenMutations) {
    CommandResult result = honest.Execute(line);
    if (Session::ParseCommand(line).word == "rewrite") {
      ASSERT_TRUE(result.ok()) << line << ": " << result.status.ToString();
      payloads.push_back(result.output);
    }
    auto divergence = checker.Check(line, RenderWireResponse(result));
    EXPECT_FALSE(divergence.has_value())
        << line << ": " << divergence->ToString();
  }
  // Each mutation changes what the next rewrite of that engine prints.
  ASSERT_EQ(payloads.size(), 11u);
  EXPECT_NE(payloads[0], payloads[3]);  // minicon, before and after v2
  EXPECT_NE(payloads[2], payloads[5]);  // lmss, before and after v2
  EXPECT_NE(payloads[0], payloads[9]);  // minicon, before and after reset
  EXPECT_EQ(checker.rewrites_checked(), 11u);
  // The repeats: rewrite, rewrite with minicon, rewrite with lmss,
  // rewrite with bucket, and the last rewrite.
  EXPECT_EQ(checker.rewrites_rederived(), 5u);
}

TEST(DifferentialTest, TcpReplayRederivesMemoAnsweredRewrites) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  auto result =
      ReplayAndCheckOverTcp(server.port(), kRepeatsBetweenMutations, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->divergence.has_value())
      << result->divergence->ToString();
  EXPECT_EQ(result->rewrites_checked, 11u);
  EXPECT_EQ(result->rewrites_rederived, 5u);
  server.Stop();
}

TEST(DifferentialTest, TamperedAnswerIsCaught) {
  Session honest;
  MirrorChecker checker;
  bool caught = false;
  for (const std::string& line : kScript) {
    std::string raw = RenderWireResponse(honest.Execute(line));
    if (line == "answer route direct") {
      ASSERT_TRUE(FlipOneAnswer(&raw));
    }
    auto divergence = checker.Check(line, raw);
    if (divergence.has_value()) {
      EXPECT_EQ(divergence->kind, "wire-mismatch");
      EXPECT_EQ(divergence->command, "answer route direct");
      caught = true;
      break;
    }
  }
  EXPECT_TRUE(caught);
}

TEST(DifferentialTest, FlipOneAnswerOnlyTouchesAnswerResponses) {
  std::string not_answer = "added view v\nok\n";
  EXPECT_FALSE(FlipOneAnswer(&not_answer));
  EXPECT_EQ(not_answer, "added view v\nok\n");
  std::string answer = "route direct: 1 answer (exact)\n(1, 3)\nok\n";
  std::string before = answer;
  EXPECT_TRUE(FlipOneAnswer(&answer));
  EXPECT_NE(answer, before);
}

TEST(DifferentialTest, ShrinkScriptFindsTheMinimalCore) {
  std::vector<std::string> lines = {"a", "b", "c", "d", "e", "f", "g"};
  auto still = [](const std::vector<std::string>& candidate) {
    return std::count(candidate.begin(), candidate.end(), "b") > 0 &&
           std::count(candidate.begin(), candidate.end(), "f") > 0;
  };
  std::vector<std::string> shrunk = ShrinkScript(lines, still);
  EXPECT_EQ(shrunk, (std::vector<std::string>{"b", "f"}));
}

TEST(DifferentialTest, ShrinkScriptPreservesOrder) {
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) lines.push_back("x" + std::to_string(i));
  auto still = [](const std::vector<std::string>& candidate) {
    // The divergence needs x3 before x37.
    auto a = std::find(candidate.begin(), candidate.end(), "x3");
    auto b = std::find(candidate.begin(), candidate.end(), "x37");
    return a != candidate.end() && b != candidate.end() && a < b;
  };
  std::vector<std::string> shrunk = ShrinkScript(lines, still);
  EXPECT_EQ(shrunk, (std::vector<std::string>{"x3", "x37"}));
}

TEST(DifferentialTest, TcpReplayAgainstLiveServerIsClean) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  auto result = ReplayAndCheckOverTcp(server.port(), kScript, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->divergence.has_value())
      << result->divergence->ToString();
  EXPECT_EQ(result->commands_sent, static_cast<int>(kScript.size()));
  EXPECT_EQ(result->answers_checked, 3u);
  EXPECT_EQ(result->rewrites_checked, 1u);
  server.Stop();
}

TEST(DifferentialTest, TcpReplayOfGeneratedSoakScriptIsClean) {
  GeneratedScenarioSpec spec;
  spec.seed = 31;
  spec.num_predicates = 8;
  spec.num_views = 15;
  spec.facts_per_predicate = 6;
  spec.domain_size = 12;
  auto scenario = GenerateScenario(spec);
  ASSERT_TRUE(scenario.ok());
  SoakScriptOptions sopts;
  sopts.seed = 5;
  sopts.churn_cycles = 1;
  auto script = SoakScriptFromScenario(*scenario, sopts);
  ASSERT_TRUE(script.ok());

  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  auto result = ReplayAndCheckOverTcp(
      server.port(), SplitScriptLines(script->text), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->divergence.has_value())
      << result->divergence->ToString();
  EXPECT_EQ(result->answers_checked,
            static_cast<uint64_t>(script->answer_probes));
  EXPECT_EQ(result->rewrites_checked,
            static_cast<uint64_t>(script->rewrite_probes));
  // The generator guarantees an equivalent rewriting, so every `(certain)`
  // answer is held equal to direct.
  EXPECT_GT(result->certain_checked, 0u);
  EXPECT_EQ(result->certain_held_equal, result->certain_checked);
  server.Stop();
}

/// The end-to-end self-test the soak driver's --inject-fault-at mode
/// relies on: a tampered response over real TCP is caught, and the
/// diverging script shrinks to a minimal repro that still diverges under
/// the re-injected fault.
TEST(DifferentialTest, InjectedFaultIsCaughtAndShrinksToAMinimalRepro) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());

  TcpReplayOptions inject;
  inject.tamper_at_answer = 0;
  auto result = ReplayAndCheckOverTcp(server.port(), kScript, inject);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->divergence.has_value());
  EXPECT_EQ(result->divergence->kind, "wire-mismatch");
  EXPECT_EQ(result->divergence->command, "answer route direct");

  TcpReplayOptions reinject;
  reinject.tamper_match = result->divergence->command;
  auto still = [&](const std::vector<std::string>& candidate) {
    auto replay = ReplayAndCheckOverTcp(server.port(), candidate, reinject);
    return replay.ok() && replay->divergence.has_value();
  };
  ASSERT_TRUE(still(kScript));
  std::vector<std::string> shrunk = ShrinkScript(kScript, still);
  EXPECT_LT(shrunk.size(), kScript.size());
  // The core: a query to answer and the tampered probe itself.
  EXPECT_NE(std::find(shrunk.begin(), shrunk.end(), "answer route direct"),
            shrunk.end());
  server.Stop();
}

}  // namespace
}  // namespace aqv
