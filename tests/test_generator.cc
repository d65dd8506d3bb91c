// Tests of the scenario-family generator (workload/generator.h) and its
// frontend bridges: determinism (same spec => byte-identical scripts),
// seed sensitivity, spec validation, Session round-trips of both the
// plain and the churning soak scripts, structural properties (noise
// views avoid the query, mirrors guarantee an equivalent rewriting), the
// registry hook, and the route-equivalence property the differential
// soak harness leans on — direct ≡ complete ≡ inverse-rules ≡ cost on
// generated scenarios, for every registered engine, seeds pinned.

#include <set>
#include <string>
#include <vector>

#include "answering/answering.h"
#include "eval/relation.h"
#include "frontend/replay.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "rewriting/engine.h"
#include "testing/rewrite_scenario.h"
#include "workload/generator.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// A small, fast spec the structural tests share.
GeneratedScenarioSpec SmallSpec(uint64_t seed) {
  GeneratedScenarioSpec spec;
  spec.seed = seed;
  spec.num_predicates = 8;
  spec.num_views = 20;
  spec.query_atoms = 3;
  spec.facts_per_predicate = 8;
  spec.domain_size = 16;
  return spec;
}

TEST(GeneratorTest, SameSpecYieldsByteIdenticalScripts) {
  GeneratedScenarioSpec spec = SmallSpec(42);
  auto a = GenerateScenario(spec);
  auto b = GenerateScenario(spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto script_a = ScriptFromScenario(*a);
  auto script_b = ScriptFromScenario(*b);
  ASSERT_TRUE(script_a.ok() && script_b.ok());
  EXPECT_EQ(*script_a, *script_b);

  SoakScriptOptions sopts;
  sopts.seed = 9;
  sopts.churn_cycles = 2;
  auto soak_a = SoakScriptFromScenario(*a, sopts);
  auto soak_b = SoakScriptFromScenario(*b, sopts);
  ASSERT_TRUE(soak_a.ok() && soak_b.ok());
  EXPECT_EQ(soak_a->text, soak_b->text);
  EXPECT_EQ(soak_a->phases, soak_b->phases);
  EXPECT_EQ(soak_a->final_views, soak_b->final_views);
}

TEST(GeneratorTest, DistinctSeedsYieldDistinctTopologies) {
  std::set<std::string> scripts;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto scenario = GenerateScenario(SmallSpec(seed));
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    auto script = ScriptFromScenario(*scenario);
    ASSERT_TRUE(script.ok());
    scripts.insert(*script);
  }
  EXPECT_EQ(scripts.size(), 5u);
}

TEST(GeneratorTest, SpecValidationRejectsOutOfBandValues) {
  GeneratedScenarioSpec spec;
  spec.num_predicates = 1;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = GeneratedScenarioSpec{};
  spec.num_views = 0;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = GeneratedScenarioSpec{};
  spec.coverage = 0.0;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = GeneratedScenarioSpec{};
  spec.chain_weight = 0.0;
  spec.star_weight = 0.0;
  spec.snowflake_weight = 0.0;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = GeneratedScenarioSpec{};
  spec.min_view_atoms = 5;
  spec.max_view_atoms = 3;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  EXPECT_TRUE(GeneratedScenarioSpec{}.Validate().ok());
}

TEST(GeneratorTest, ScriptRoundTripsThroughASession) {
  auto scenario = GenerateScenario(SmallSpec(7));
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  auto script = ScriptFromScenario(*scenario);
  ASSERT_TRUE(script.ok()) << script.status().ToString();

  Session session;
  std::vector<CommandResult> results = session.ExecuteScript(*script);
  for (const CommandResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.status.ToString();
  }
  EXPECT_EQ(static_cast<int>(session.views().size()),
            scenario->views.size());
  ASSERT_TRUE(session.query().has_value());
  EXPECT_EQ(session.query()->disjuncts[0].ToString(),
            scenario->query.ToString());
}

TEST(GeneratorTest, ChurningSoakScriptReplaysCleanly) {
  auto scenario = GenerateScenario(SmallSpec(11));
  ASSERT_TRUE(scenario.ok());
  SoakScriptOptions sopts;
  sopts.seed = 3;
  sopts.churn_cycles = 2;
  auto script = SoakScriptFromScenario(*scenario, sopts);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  // 1 initial phase + per-cycle add and retire phases.
  EXPECT_GE(script->phases, 3);
  EXPECT_GT(script->answer_probes, 0);
  EXPECT_GT(script->rewrite_probes, 0);
  EXPECT_GT(script->final_views, 0);

  Session session;
  std::vector<CommandResult> results = session.ExecuteScript(script->text);
  int answers = 0;
  int rewrites = 0;
  for (const CommandResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    if (r.output.rfind("route ", 0) == 0) ++answers;
    if (r.output.rfind("engine ", 0) == 0) ++rewrites;
  }
  EXPECT_EQ(answers, script->answer_probes);
  EXPECT_EQ(rewrites, script->rewrite_probes);
  // The session ends holding exactly the surviving view set.
  EXPECT_EQ(static_cast<int>(session.views().size()), script->final_views);
}

TEST(GeneratorTest, NoiseViewsAvoidTheQueryPredicates) {
  GeneratedScenarioSpec spec = SmallSpec(13);
  spec.guarantee_equivalent = false;
  spec.redundancy = 0.0;
  spec.noise_view_fraction = 1.0;
  auto scenario = GenerateScenario(spec);
  ASSERT_TRUE(scenario.ok());
  std::set<PredId> query_preds;
  for (const Atom& atom : scenario->query.body()) {
    query_preds.insert(atom.pred);
  }
  for (const View& view : scenario->views.views()) {
    for (const Atom& atom : view.definition.body()) {
      EXPECT_EQ(query_preds.count(atom.pred), 0u)
          << view.definition.ToString();
    }
  }
}

TEST(GeneratorTest, MirrorViewsGuaranteeAnEquivalentRewriting) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    auto scenario = GenerateScenario(SmallSpec(seed));
    ASSERT_TRUE(scenario.ok());
    auto response = RewriteScenarioWithEngine(*scenario, "lmss", {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->equivalent_exists) << "seed " << seed;
  }
}

TEST(GeneratorTest, MultiTenantViewsStayWithinTheirTenant) {
  GeneratedScenarioSpec spec = SmallSpec(17);
  spec.num_tenants = 3;
  auto scenario = GenerateScenario(spec);
  ASSERT_TRUE(scenario.ok());
  const Catalog& catalog = *scenario->catalog;
  for (const View& view : scenario->views.views()) {
    // Every atom of one view names predicates of one tenant: prefixes
    // never mix within a body.
    std::set<std::string> prefixes;
    for (const Atom& atom : view.definition.body()) {
      std::string name = catalog.pred(atom.pred).name;
      size_t underscore = name.find('_');
      prefixes.insert(underscore == std::string::npos
                          ? std::string("t0")
                          : name.substr(0, underscore));
    }
    EXPECT_EQ(prefixes.size(), 1u) << view.definition.ToString();
  }
}

TEST(GeneratorTest, RegistryExposesGeneratedButNotInScenarioNames) {
  EXPECT_EQ(ScenarioNames().size(), 3u);
  auto scenario = MakeScenarioByName("generated", 5, 60);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_GT(scenario->views.size(), 0);
  auto again = MakeScenarioByName("generated", 5, 60);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(scenario->description, again->description);
}

/// Satellite property: on generated scenarios with mirrors, all four
/// answering routes agree exactly, for every registered engine — 20
/// pinned seeds x engines.
TEST(GeneratorTest, RouteEquivalenceHoldsOnGeneratedScenarios) {
  for (uint64_t seed = 100; seed < 120; ++seed) {
    GeneratedScenarioSpec spec = SmallSpec(seed);
    spec.num_views = 15;
    spec.facts_per_predicate = 6;
    spec.domain_size = 12;
    auto scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << "seed " << seed;

    auto run = [&](AnswerRoute route, const std::string& engine) {
      AnswerRequest request;
      request.query.disjuncts.push_back(scenario->query);
      request.views = &scenario->views;
      request.base = &scenario->base;
      request.route = route;
      request.engine = engine;
      auto response = AnswerQuery(request);
      EXPECT_TRUE(response.ok())
          << "seed " << seed << " route "
          << AnswerRouteName(route) << " engine " << engine << ": "
          << response.status().ToString();
      Relation rel = response->result;
      rel.SortDedup();
      return rel.ToString(*scenario->catalog);
    };

    std::string direct = run(AnswerRoute::kDirect, "minicon");
    for (const std::string& engine : EngineNames()) {
      EXPECT_EQ(run(AnswerRoute::kCompleteRewriting, engine), direct)
          << "seed " << seed << " engine " << engine;
    }
    EXPECT_EQ(run(AnswerRoute::kInverseRules, "minicon"), direct)
        << "seed " << seed;
    EXPECT_EQ(run(AnswerRoute::kCostBased, "minicon"), direct)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aqv
