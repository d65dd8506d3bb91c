#include <gtest/gtest.h>

#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "workload/datagen.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

TEST(Generators, ChainQueryShape) {
  Catalog cat;
  ChainQuerySpec spec;
  spec.length = 5;
  Query q = MakeChainQuery(&cat, spec).value();
  EXPECT_EQ(q.body().size(), 5u);
  EXPECT_EQ(q.num_vars(), 6);
  EXPECT_EQ(q.head().arity(), 2);
  EXPECT_TRUE(q.Validate().ok());
  // Adjacent subgoals share exactly the middle variable.
  EXPECT_EQ(q.body()[0].args[1], q.body()[1].args[0]);
}

TEST(Generators, ChainQuerySharedPredicate) {
  Catalog cat;
  ChainQuerySpec spec;
  spec.length = 4;
  spec.distinct_predicates = false;
  Query q = MakeChainQuery(&cat, spec).value();
  for (const Atom& a : q.body()) {
    EXPECT_EQ(a.pred, q.body()[0].pred);
  }
}

TEST(Generators, ChainViewsAreSubchains) {
  Catalog cat;
  ChainViewSpec spec;
  spec.chain.length = 6;
  spec.num_views = 20;
  spec.min_length = 2;
  spec.max_length = 3;
  Rng rng(5);
  ViewSet vs = MakeChainViews(&cat, &rng, spec).value();
  ASSERT_EQ(vs.size(), 20);
  for (const View& v : vs.views()) {
    EXPECT_GE(v.definition.body().size(), 2u);
    EXPECT_LE(v.definition.body().size(), 3u);
    EXPECT_TRUE(v.definition.Validate().ok());
  }
}

TEST(Generators, ChainViewPolicies) {
  Catalog cat;
  ChainViewSpec spec;
  spec.chain.length = 5;
  spec.num_views = 8;
  spec.policy = DistinguishedPolicy::kEnds;
  Rng rng(6);
  ViewSet ends = MakeChainViews(&cat, &rng, spec).value();
  for (const View& v : ends.views()) {
    EXPECT_EQ(v.definition.head().arity(), 2);
  }
  spec.policy = DistinguishedPolicy::kAll;
  spec.view_prefix = "w";
  ViewSet all = MakeChainViews(&cat, &rng, spec).value();
  for (const View& v : all.views()) {
    EXPECT_EQ(v.definition.head().arity(),
              static_cast<int>(v.definition.body().size()) + 1);
  }
}

TEST(Generators, StarQueryShape) {
  Catalog cat;
  StarQuerySpec spec;
  spec.rays = 4;
  Query q = MakeStarQuery(&cat, spec).value();
  EXPECT_EQ(q.body().size(), 4u);
  EXPECT_EQ(q.num_vars(), 5);
  // All subgoals share the center variable.
  for (const Atom& a : q.body()) {
    EXPECT_EQ(a.args[0], q.body()[0].args[0]);
  }
}

TEST(Generators, StarViews) {
  Catalog cat;
  StarViewSpec spec;
  spec.star.rays = 5;
  spec.num_views = 12;
  spec.min_rays = 1;
  spec.max_rays = 2;
  Rng rng(7);
  ViewSet vs = MakeStarViews(&cat, &rng, spec).value();
  ASSERT_EQ(vs.size(), 12);
  for (const View& v : vs.views()) {
    EXPECT_LE(v.definition.body().size(), 2u);
  }
}

TEST(Generators, RandomQueriesAreValid) {
  Catalog cat;
  Rng rng(9);
  RandomQuerySpec spec;
  spec.num_subgoals = 5;
  spec.num_vars = 4;
  spec.constant_prob = 0.2;
  for (int i = 0; i < 50; ++i) {
    RandomQuerySpec s = spec;
    s.head_name = "q" + std::to_string(i);
    Query q = MakeRandomQuery(&cat, &rng, s).value();
    EXPECT_TRUE(q.Validate().ok()) << q.ToString();
    EXPECT_EQ(q.body().size(), 5u);
  }
}

TEST(Generators, RandomViewsDistinctNames) {
  Catalog cat;
  Rng rng(10);
  RandomQuerySpec spec;
  ViewSet vs = MakeRandomViews(&cat, &rng, spec, 7, "rv").value();
  EXPECT_EQ(vs.size(), 7);
}

TEST(DataGen, RandomDatabaseRespectsSpec) {
  Catalog cat;
  PredId r = cat.GetOrAddPredicate("r", 2).value();
  PredId s = cat.GetOrAddPredicate("s", 3).value();
  Rng rng(11);
  DataGenSpec spec;
  spec.tuples_per_relation = 100;
  spec.domain_size = 10;
  Database db = MakeRandomDatabase(&cat, {r, s}, &rng, spec);
  const Relation* rr = db.Find(r);
  ASSERT_NE(rr, nullptr);
  EXPECT_LE(rr->size(), 100u);  // dedup may shrink
  EXPECT_GT(rr->size(), 50u);
  for (size_t i = 0; i < rr->size(); ++i) {
    EXPECT_GE(rr->at(i, 0), 0);
    EXPECT_LT(rr->at(i, 0), 10);
  }
  EXPECT_EQ(db.Find(s)->arity(), 3);
}

TEST(DataGen, ExtensionalPredicateListing) {
  Catalog cat;
  cat.GetOrAddPredicate("r", 2).value();
  cat.GetOrAddPredicate("q", 1, PredKind::kIntensional).value();
  std::vector<PredId> ext = ExtensionalPredicates(cat);
  EXPECT_EQ(ext.size(), 1u);
}

class ScenarioTest : public ::testing::TestWithParam<int> {};

TEST(Scenarios, TravelScenarioIsCoherent) {
  auto s = MakeTravelScenario(42, 200);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(s->query.Validate().ok());
  EXPECT_EQ(s->views.size(), 5);
  EXPECT_GT(s->base.TotalTuples(), 100u);
  // Views materialize and the query has answers over the base.
  Database extents = MaterializeViews(s->views, s->base).value();
  EXPECT_GT(extents.TotalTuples(), 0u);
  Relation direct = EvaluateQuery(s->query, s->base).value();
  EXPECT_GT(direct.size(), 0u);
}

TEST(Scenarios, WarehouseScenarioHasEquivalentRewritingMaterial) {
  auto s = MakeWarehouseScenario(43, 300);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->views.size(), 4);
  Relation direct = EvaluateQuery(s->query, s->base).value();
  EXPECT_GT(direct.size(), 0u);
}

TEST(Scenarios, BibliographyScenario) {
  auto s = MakeBibliographyScenario(44, 150);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(s->query.Validate().ok());
  Database extents = MaterializeViews(s->views, s->base).value();
  EXPECT_GT(extents.TotalTuples(), 0u);
}

TEST(Scenarios, DeterministicForSeed) {
  auto a = MakeTravelScenario(7, 100);
  auto b = MakeTravelScenario(7, 100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->base.TotalTuples(), b->base.TotalTuples());
}

}  // namespace
}  // namespace aqv
