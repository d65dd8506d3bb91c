#include <gtest/gtest.h>

#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "rewriting/planner.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

/// Relation sizes only, no distinct counts: every estimate then falls back
/// to the arity-ratio guess.
ExtentStats SizesOnly(const Database& db) {
  ExtentStats stats;
  for (PredId p : db.Predicates()) stats.cardinality[p] = db.Find(p)->size();
  return stats;
}

class PlannerTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
};

TEST_F(PlannerTest, StatsFromDatabase) {
  Database db(&cat_);
  PredId r = cat_.GetOrAddPredicate("r", 2).value();
  db.Add(r, {1, 2});
  db.Add(r, {3, 4});
  ExtentStats stats = ExtentStats::FromDatabase(db);
  EXPECT_EQ(stats.Card(r), 2u);
  EXPECT_EQ(stats.Card(r + 100), 0u);
  // FromDatabase carries the measured per-column distinct counts.
  const std::vector<uint64_t>* distinct = stats.Distinct(r);
  ASSERT_NE(distinct, nullptr);
  EXPECT_EQ(*distinct, (std::vector<uint64_t>{2, 2}));
}

TEST_F(PlannerTest, MeasuredSelectivityBeatsArityRatioGuessOnSkew) {
  // Two join targets with identical cardinality and arity: `wide` has n
  // distinct join keys (fanout ~1 per probe), `narrow` only 2 (fanout
  // n/2). The arity-ratio guess sees no difference; the measured model
  // and the evaluator's actual intermediate-row counters both do.
  Query via_wide = Parse("qw(X, Z) :- src(X, Y), wide(Y, Z).");
  Query via_narrow = Parse("qn(X, Z) :- src(X, Y), narrow(Y, Z).");
  Database db(&cat_);
  PredId src = cat_.FindPredicate("src").value();
  PredId wide = cat_.FindPredicate("wide").value();
  PredId narrow = cat_.FindPredicate("narrow").value();
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    db.Add(src, {i, i % 2});
    db.Add(wide, {i, i});
    db.Add(narrow, {i % 2, i});
  }
  db.DedupAll();

  ExtentStats guessed = SizesOnly(db);
  EXPECT_DOUBLE_EQ(EstimatePlanCost(via_wide, guessed),
                   EstimatePlanCost(via_narrow, guessed))
      << "sanity: the size-only guess cannot tell the plans apart";

  ExtentStats measured = ExtentStats::FromDatabase(db);
  double wide_cost = EstimatePlanCost(via_wide, measured);
  double narrow_cost = EstimatePlanCost(via_narrow, measured);
  EXPECT_LT(wide_cost, narrow_cost);

  EvalStats wide_stats;
  ASSERT_TRUE(EvaluateQuery(via_wide, db, {}, &wide_stats).ok());
  EvalStats narrow_stats;
  ASSERT_TRUE(EvaluateQuery(via_narrow, db, {}, &narrow_stats).ok());
  EXPECT_LT(wide_stats.intermediate_rows, narrow_stats.intermediate_rows)
      << "the measured model's ordering must match real evaluation";
}

TEST_F(PlannerTest, CostPrefersSmallRelations) {
  Query small = Parse("q(X) :- tiny(X, Y).");
  Query big = Parse("q2(X) :- huge(X, Y).");
  ExtentStats stats;
  stats.cardinality[cat_.FindPredicate("tiny").value()] = 10;
  stats.cardinality[cat_.FindPredicate("huge").value()] = 100000;
  EXPECT_LT(EstimatePlanCost(small, stats), EstimatePlanCost(big, stats));
}

TEST_F(PlannerTest, CostGrowsWithJoinDepth) {
  Query one = Parse("p1(X) :- r(X, Y).");
  Query two = Parse("p2(X) :- r(X, Y), r(Y, Z).");
  ExtentStats stats;
  stats.cardinality[cat_.FindPredicate("r").value()] = 100;
  EXPECT_LT(EstimatePlanCost(one, stats), EstimatePlanCost(two, stats));
}

TEST_F(PlannerTest, ConnectedJoinCheaperThanCrossProduct) {
  // Regression for the cardinality-only prefix-product model: it charged
  // the connected chain r⋈s (via the shared variable Y) the full 100×100
  // while the *cross product* with the smaller u got 50 + 50×100 — so the
  // old model preferred the cross-product plan. The bound-variable-aware
  // model charges the chain's second atom c^(1/2) per probe and flips the
  // ordering.
  Query chain = Parse("pc(X, Z) :- r(X, Y), s(Y, Z).");
  Query cross = Parse("px(X, Z) :- r(X, Y), u(Z, W).");
  ExtentStats stats;
  stats.cardinality[cat_.FindPredicate("r").value()] = 100;
  stats.cardinality[cat_.FindPredicate("s").value()] = 100;
  stats.cardinality[cat_.FindPredicate("u").value()] = 50;
  double chain_cost = EstimatePlanCost(chain, stats);
  double cross_cost = EstimatePlanCost(cross, stats);
  EXPECT_LT(chain_cost, cross_cost);

  // The old model's numbers, for the record: sorted prefix products give
  // chain = 100 + 100·100 = 10100 and cross = 50 + 50·100 = 5050.
  EXPECT_LT(chain_cost, 5050.0);
}

TEST_F(PlannerTest, BoundConstantsAndRepeatsReduceCost) {
  Query open = Parse("po(X, Y) :- big(X, Y).");
  Query constant = Parse("pk(X) :- big(X, 7).");
  Query repeated = Parse("pr(X) :- big(X, X).");
  ExtentStats stats;
  stats.cardinality[cat_.FindPredicate("big").value()] = 10000;
  EXPECT_LT(EstimatePlanCost(constant, stats), EstimatePlanCost(open, stats));
  EXPECT_LT(EstimatePlanCost(repeated, stats), EstimatePlanCost(open, stats));
}

TEST_F(PlannerTest, CostOrderingTracksActualEvalStats) {
  // The model's claim — connected joins beat cross products — validated
  // against the evaluator's own intermediate-row counters on real data.
  Query chain = Parse("qc(X, Z) :- e1(X, Y), e2(Y, Z).");
  Query cross = Parse("qx(X, Z) :- e1(X, Y), e3(Z, W).");
  Database db(&cat_);
  PredId e1 = cat_.FindPredicate("e1").value();
  PredId e2 = cat_.FindPredicate("e2").value();
  PredId e3 = cat_.FindPredicate("e3").value();
  for (int i = 0; i < 100; ++i) {
    db.Add(e1, {i % 30, (i * 7) % 30});
    db.Add(e2, {(i * 3) % 30, i % 30});
    if (i < 50) db.Add(e3, {i % 30, (i * 11) % 30});
  }
  EvalStats chain_stats;
  ASSERT_TRUE(EvaluateQuery(chain, db, {}, &chain_stats).ok());
  EvalStats cross_stats;
  ASSERT_TRUE(EvaluateQuery(cross, db, {}, &cross_stats).ok());
  ASSERT_LT(chain_stats.intermediate_rows, cross_stats.intermediate_rows);

  ExtentStats stats = ExtentStats::FromDatabase(db);
  EXPECT_LT(EstimatePlanCost(chain, stats), EstimatePlanCost(cross, stats));
}

TEST_F(PlannerTest, PlansComeFromAllEnginesWithProvenance) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "ve(A, B) :- e(A, B).\n"
      "vf(B, C) :- f(B, C).\n"
      "vj(A, C) :- e(A, B), f(B, C).");
  PlannerResult res = ChooseBestPlan(q, vs, {}, {}).value();
  ASSERT_GE(res.plans.size(), 2u);
  bool has_engine_plan = false;
  bool has_direct_plan = false;
  for (const PlanChoice& plan : res.plans) {
    EXPECT_FALSE(plan.engine.empty());
    if (plan.engine == "direct") {
      has_direct_plan = true;
      EXPECT_FALSE(plan.complete);
    } else {
      has_engine_plan = true;
    }
  }
  EXPECT_TRUE(has_engine_plan);
  EXPECT_TRUE(has_direct_plan);
  EXPECT_GT(res.stats.num_candidates, 0u);
}

TEST_F(PlannerTest, EngineSubsetRestrictsPlanSources) {
  Query q = Parse("q2(X, Z) :- g2(X, Y), h2(Y, Z).");
  ViewSet vs = Views("vgh(A, C) :- g2(A, B), h2(B, C).");
  PlannerOptions opts;
  opts.engines = {"minicon"};
  opts.include_direct_plan = false;
  PlannerResult res = ChooseBestPlan(q, vs, {}, {}, opts).value();
  ASSERT_FALSE(res.plans.empty());
  for (const PlanChoice& plan : res.plans) {
    EXPECT_EQ(plan.engine, "minicon");
    EXPECT_TRUE(plan.complete);
  }
}

TEST_F(PlannerTest, ChoosesPreJoinedViewWhenCheaper) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "ve(A, B) :- e(A, B).\n"
      "vf(B, C) :- f(B, C).\n"
      "vj(A, C) :- e(A, B), f(B, C).");
  ExtentStats view_stats;
  view_stats.cardinality[cat_.FindPredicate("ve").value()] = 1000;
  view_stats.cardinality[cat_.FindPredicate("vf").value()] = 1000;
  view_stats.cardinality[cat_.FindPredicate("vj").value()] = 50;
  ExtentStats base_stats;
  base_stats.cardinality[cat_.FindPredicate("e").value()] = 1000;
  base_stats.cardinality[cat_.FindPredicate("f").value()] = 1000;

  PlannerResult res = ChooseBestPlan(q, vs, view_stats, base_stats).value();
  ASSERT_GE(res.plans.size(), 2u);
  ASSERT_GE(res.best, 0);
  // The single-atom vj plan dominates everything.
  const PlanChoice& best = res.plans[res.best];
  ASSERT_EQ(best.rewriting.body().size(), 1u);
  EXPECT_EQ(cat_.pred(best.rewriting.body()[0].pred).name, "vj");
  EXPECT_TRUE(best.complete);
}

TEST_F(PlannerTest, FallsBackToDirectWhenNoRewriting) {
  Query q = Parse("q(X) :- g(X, Y), h(Y).");
  ViewSet vs = Views("vg(A) :- g(A, B).");  // cannot rewrite
  ExtentStats base_stats;
  base_stats.cardinality[cat_.FindPredicate("g").value()] = 10;
  base_stats.cardinality[cat_.FindPredicate("h").value()] = 10;
  PlannerResult res = ChooseBestPlan(q, vs, {}, base_stats).value();
  ASSERT_EQ(res.plans.size(), 1u);  // just the direct plan
  EXPECT_EQ(res.best, 0);
  EXPECT_FALSE(res.plans[0].complete);
}

TEST_F(PlannerTest, DirectPlanCanWinOnStats) {
  // The view extent is (artificially) bigger than re-joining the bases.
  Query q = Parse("q(X, Z) :- a(X, Y), b(Y, Z).");
  ViewSet vs = Views("vab(X, Z) :- a(X, Y), b(Y, Z).");
  ExtentStats view_stats;
  view_stats.cardinality[cat_.FindPredicate("vab").value()] = 1'000'000;
  ExtentStats base_stats;
  base_stats.cardinality[cat_.FindPredicate("a").value()] = 10;
  base_stats.cardinality[cat_.FindPredicate("b").value()] = 10;
  PlannerResult res = ChooseBestPlan(q, vs, view_stats, base_stats).value();
  ASSERT_GE(res.plans.size(), 2u);
  EXPECT_FALSE(res.plans[res.best].complete);  // direct plan wins
}

TEST_F(PlannerTest, NoDirectPlanOption) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  PlannerOptions opts;
  opts.include_direct_plan = false;
  PlannerResult res = ChooseBestPlan(q, vs, {}, {}, opts).value();
  ASSERT_EQ(res.plans.size(), 1u);
  EXPECT_TRUE(res.plans[0].complete);
}

TEST_F(PlannerTest, EndToEndOnWarehouseScenario) {
  Scenario s = MakeWarehouseScenario(5, 2000).value();
  Database extents = MaterializeViews(s.views, s.base).value();
  PlannerResult res =
      ChooseBestPlan(s.query, s.views, ExtentStats::FromDatabase(extents),
                     ExtentStats::FromDatabase(s.base))
          .value();
  ASSERT_GE(res.best, 0);
  const PlanChoice& best = res.plans[res.best];
  // Execute the winner on the right database and cross-check.
  Relation direct = EvaluateQuery(s.query, s.base).value();
  Relation chosen = best.complete
                        ? EvaluateQuery(best.rewriting, extents).value()
                        : EvaluateQuery(best.rewriting, s.base).value();
  EXPECT_TRUE(Relation::SameSet(direct, chosen));
}

}  // namespace
}  // namespace aqv
