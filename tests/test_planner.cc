#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "rewriting/pipeline.h"
#include "rewriting/planner.h"
#include "views/expansion.h"
#include "workload/generator.h"
#include "workload/registry.h"
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

TEST_F(PlannerTest, PlansComeFromLmssOrDirectWithProvenance) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "ve(A, B) :- e(A, B).\n"
      "vf(B, C) :- f(B, C).\n"
      "vj(A, C) :- e(A, B), f(B, C).");
  PlannerResult res = ChooseBestPlan(q, vs, {}, {}).value();
  ASSERT_GE(res.plans.size(), 2u);
  bool has_lmss_plan = false;
  bool has_direct_plan = false;
  for (const PlanChoice& plan : res.plans) {
    if (plan.engine == "direct") {
      has_direct_plan = true;
      EXPECT_FALSE(plan.complete);
    } else {
      EXPECT_EQ(plan.engine, "lmss");
      has_lmss_plan = true;
    }
  }
  EXPECT_TRUE(has_lmss_plan);
  EXPECT_TRUE(has_direct_plan);
  EXPECT_EQ(res.plans.back().engine, "direct");
  EXPECT_GT(res.stats.num_candidates, 0u);
}

TEST_F(PlannerTest, LmssBudgetFailureLeavesOnlyTheDirectPlan) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("ve(A, B) :- e(A, B).\nvf(B, C) :- f(B, C).");
  PlannerOptions opts;
  opts.engine.lmss.max_subsets = 0;
  RewriteRequest request;
  request.query.disjuncts.push_back(q);
  request.views = &vs;
  request.options = opts.engine;
  ASSERT_EQ(RunEngine("lmss", request).status().code(),
            StatusCode::kResourceExhausted);
  PlannerResult res = ChooseBestPlan(q, vs, {}, {}, opts).value();
  ASSERT_EQ(res.plans.size(), 1u);
  EXPECT_EQ(res.plans[0].engine, "direct");
  EXPECT_EQ(res.plans[0].rewriting.ToString(), q.ToString());
  EXPECT_EQ(res.best, 0);
  EXPECT_EQ(res.stats.num_candidates, 0u);
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

// --- all-engine reference -----------------------------------------------
//
// ChooseBestPlan consults lmss alone. The reference below is the planner's
// former loop: lmss, then bucket, then minicon, each disjunct of the last
// two kept only when its expansion is equivalent to q, deduplicated across
// engines and capped at 64 plans, then the direct plan. Every minimal
// equivalent rewriting is isomorphic to a subset of lmss's candidate pool,
// so bucket and minicon can add only duplicates or non-minimal plans; the
// planner must choose the reference's plan and list the reference's plans
// without their bucket and minicon entries.

/// The reference's cap on plans, as ChooseBestPlan's.
constexpr int kReferenceMaxPlans = 64;

bool IsSkippable(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kUnimplemented;
}

Result<PlannerResult> AllEnginePlans(const Query& q, const ViewSet& views,
                                     const ExtentStats& view_stats,
                                     const ExtentStats& base_stats) {
  ExtentStats merged = base_stats;
  for (const auto& [pred, card] : view_stats.cardinality) {
    merged.cardinality[pred] = card;
  }
  for (const auto& [pred, distinct] : view_stats.column_distinct) {
    merged.column_distinct[pred] = distinct;
  }
  PlannerResult result;
  QueryDeduper deduper;
  Query minimized = q;
  auto full = [&] {
    return static_cast<int>(result.plans.size()) >= kReferenceMaxPlans;
  };
  for (const std::string name : {"lmss", "bucket", "minicon"}) {
    if (full()) break;
    RewriteRequest request;
    request.query.disjuncts.push_back(q);
    request.views = &views;
    request.options.lmss.max_rewritings = kReferenceMaxPlans;
    Result<RewriteResponse> run = RunEngine(name, request);
    if (!run.ok()) {
      if (IsSkippable(run.status())) continue;
      return run.status();
    }
    // Of the three engines only lmss minimizes.
    if (name == "lmss") minimized = run->minimized.disjuncts[0];
    for (Query& rw : run->rewritings.disjuncts) {
      if (full()) break;
      if (name != "lmss") {
        AQV_ASSIGN_OR_RETURN(ExpansionResult ex, ExpandRewriting(rw, views));
        if (!ex.satisfiable) continue;
        Result<bool> equivalent = AreEquivalent(q, ex.query);
        if (!equivalent.ok()) {
          if (IsSkippable(equivalent.status())) continue;
          return equivalent.status();
        }
        if (!*equivalent) continue;
      }
      if (!deduper.Insert(rw)) continue;
      PlanChoice plan;
      plan.engine = name;
      plan.complete = UsesOnlyViews(rw, views);
      plan.estimated_cost = EstimatePlanCost(rw, merged);
      plan.rewriting = std::move(rw);
      result.plans.push_back(std::move(plan));
    }
  }
  PlanChoice direct;
  direct.rewriting = std::move(minimized);
  direct.engine = "direct";
  direct.estimated_cost = EstimatePlanCost(direct.rewriting, base_stats);
  result.plans.push_back(std::move(direct));
  for (int i = 0; i < static_cast<int>(result.plans.size()); ++i) {
    if (result.best < 0 || result.plans[i].estimated_cost <
                               result.plans[result.best].estimated_cost) {
      result.best = i;
    }
  }
  return result;
}

using PlanRow = std::tuple<std::string, bool, double, std::string>;

PlanRow Row(const PlanChoice& plan) {
  return {plan.engine, plan.complete, plan.estimated_cost,
          plan.rewriting.ToString()};
}

/// What the comparison with the reference saw.
struct ReferenceTally {
  int problems = 0;
  int lmss_chosen = 0;
  int direct_chosen = 0;
  /// Problems where lmss returned the planner's cap of 64 rewritings.
  int lmss_capped = 0;
  /// Labels of problems where the reference chose a bucket or minicon
  /// plan; ChooseBestPlan cannot match those.
  std::vector<std::string> other_chosen;
};

/// Holds ChooseBestPlan to AllEnginePlans on one problem, statistics
/// measured as the answering pipeline measures them.
void ExpectMatchesReference(const Query& q, const ViewSet& views,
                            const Database& base, const std::string& label,
                            ReferenceTally* tally) {
  Result<Database> extents = MaterializeViews(views, base);
  ASSERT_TRUE(extents.ok()) << label << ": " << extents.status().ToString();
  ExtentStats view_stats = ExtentStats::FromDatabase(*extents);
  ExtentStats base_stats = ExtentStats::FromDatabase(base);
  Result<PlannerResult> got = ChooseBestPlan(q, views, view_stats, base_stats);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  Result<PlannerResult> want =
      AllEnginePlans(q, views, view_stats, base_stats);
  ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  ASSERT_GE(got->best, 0) << label;
  ASSERT_GE(want->best, 0) << label;

  const PlanChoice& chosen = want->plans[want->best];
  EXPECT_EQ(Row(got->plans[got->best]), Row(chosen)) << label;
  std::vector<PlanRow> expected;
  for (const PlanChoice& plan : want->plans) {
    if (plan.engine == "lmss" || plan.engine == "direct") {
      expected.push_back(Row(plan));
    }
  }
  std::vector<PlanRow> actual;
  for (const PlanChoice& plan : got->plans) actual.push_back(Row(plan));
  EXPECT_EQ(actual, expected) << label;

  ++tally->problems;
  if (chosen.engine == "lmss") ++tally->lmss_chosen;
  if (chosen.engine == "direct") ++tally->direct_chosen;
  if (chosen.engine != "lmss" && chosen.engine != "direct") {
    tally->other_chosen.push_back(label);
  }
  if (actual.size() == static_cast<size_t>(kReferenceMaxPlans) + 1) {
    ++tally->lmss_capped;
  }
}

void ExpectMatchesReference(const Scenario& scenario, const std::string& label,
                            ReferenceTally* tally) {
  ExpectMatchesReference(scenario.query, scenario.views, scenario.base, label,
                         tally);
}

/// The generated shapes of the reference comparison.
struct Shape {
  std::string name;
  GeneratedScenarioSpec spec;
};

std::vector<Shape> ReferenceShapes() {
  GeneratedScenarioSpec answer_cold;
  answer_cold.num_views = 60;
  answer_cold.facts_per_predicate = 60;
  answer_cold.domain_size = 100;
  GeneratedScenarioSpec rewrite_hard;
  rewrite_hard.query_atoms = 4;
  rewrite_hard.num_views = 80;
  rewrite_hard.facts_per_predicate = 5;
  std::vector<Shape> shapes;
  for (bool equivalent : {true, false}) {
    const std::string suffix = equivalent ? "" : " without mirrors";
    answer_cold.guarantee_equivalent = equivalent;
    rewrite_hard.guarantee_equivalent = equivalent;
    shapes.push_back({"answer_cold" + suffix, answer_cold});
    shapes.push_back({"rewrite_hard" + suffix, rewrite_hard});
  }
  for (int atoms : {2, 5}) {
    GeneratedScenarioSpec spec;
    spec.query_atoms = atoms;
    shapes.push_back({std::to_string(atoms) + "-atom", spec});
  }
  return shapes;
}

TEST(PlannerReferenceTest, MatchesAllEngineLoopOnGeneratedProblems) {
  ReferenceTally tally;
  const std::vector<Shape> shapes = ReferenceShapes();
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 9001; seed <= 9050; ++seed) {
      GeneratedScenarioSpec spec = shape.spec;
      spec.seed = seed;
      Result<Scenario> scenario = GenerateScenario(spec);
      ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
      ExpectMatchesReference(*scenario,
                             shape.name + " seed " + std::to_string(seed),
                             &tally);
    }
  }
  EXPECT_EQ(tally.problems, 300);
  EXPECT_TRUE(tally.other_chosen.empty())
      << tally.other_chosen.size() << " problems, the first "
      << tally.other_chosen.front();
  // Both kinds of choice occur, so the comparison is not vacuous.
  EXPECT_GT(tally.lmss_chosen, 0);
  EXPECT_GT(tally.direct_chosen, 0);
}

TEST(PlannerReferenceTest, MatchesAllEngineLoopWhereLmssStopsAtTheCap) {
  // The seeds on which lmss returns 64 rewritings, its planner cap: the
  // reference then takes no bucket or minicon plan at all.
  ReferenceTally tally;
  const std::vector<Shape> shapes = ReferenceShapes();
  const Shape& rewrite_hard = shapes[1];
  const Shape& five_atoms = shapes[5];
  const std::vector<std::pair<const Shape*, uint64_t>> capped = {
      {&rewrite_hard, 9003}, {&rewrite_hard, 9020}, {&rewrite_hard, 9106},
      {&five_atoms, 9003},   {&five_atoms, 9020},   {&five_atoms, 9025},
      {&five_atoms, 9124},
  };
  for (const auto& [shape, seed] : capped) {
    GeneratedScenarioSpec spec = shape->spec;
    spec.seed = seed;
    Result<Scenario> scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    ExpectMatchesReference(*scenario,
                           shape->name + " seed " + std::to_string(seed),
                           &tally);
  }
  EXPECT_EQ(tally.lmss_capped, static_cast<int>(capped.size()));
  EXPECT_TRUE(tally.other_chosen.empty());
}

TEST(PlannerReferenceTest, MatchesAllEngineLoopOnHandWrittenProblems) {
  // The hand-written problems of this suite and of test_answering, over
  // small databases (the last one has comparisons), then the packaged
  // scenarios.
  struct Problem {
    std::string query;
    std::string views;
  };
  const std::vector<Problem> problems = {
      {"q(X, Z) :- e(X, Y), f(Y, Z).",
       "ve(A, B) :- e(A, B).\nvf(B, C) :- f(B, C).\n"
       "vj(A, C) :- e(A, B), f(B, C)."},
      {"q(X, Z) :- e(X, Y), f(Y, Z).", "ve(A, B) :- e(A, B)."},
      {"q(X) :- g(X, Y), h(Y).", "vg(A) :- g(A, B)."},
      {"q(X, Z) :- a(X, Y), b(Y, Z).", "vab(X, Z) :- a(X, Y), b(Y, Z)."},
      {"q(X) :- r(X, Y).", "v(A, B) :- r(A, B)."},
      {"q(X) :- e(X, Y).",
       "v1(A, B) :- e(A, B), t(B).\nv2(A, B) :- e(A, B), u(B)."},
      {"q(X, Z) :- r(X, Y), s(Y, Z), X < Z.",
       "vlow(A, C) :- r(A, B), s(B, C), A < C, A < 5.\n"
       "vr(A, B) :- r(A, B).\nvs(B, C) :- s(B, C)."},
  };
  ReferenceTally tally;
  for (const Problem& problem : problems) {
    Catalog cat;
    Query q = ParseQuery(problem.query, &cat).value();
    ViewSet views = ViewSet::Parse(problem.views, &cat).value();
    // Every base predicate gets the same rows: a chain and a self loop.
    Database base(&cat);
    for (PredId p = 0; p < cat.num_predicates(); ++p) {
      if (views.FindByPred(p) != nullptr || p == q.head().pred) continue;
      for (int64_t v = 1; v <= 6; ++v) {
        if (cat.pred(p).arity == 1) base.Add(p, {v});
        if (cat.pred(p).arity == 2) base.Add(p, {v, v % 6 + 1});
      }
      if (cat.pred(p).arity == 2) base.Add(p, {3, 3});
    }
    ExpectMatchesReference(q, views, base, problem.query, &tally);
  }
  for (const std::string& name : ScenarioNames()) {
    Scenario s = MakeScenarioByName(name, /*seed=*/5, /*db_size=*/200).value();
    ExpectMatchesReference(s, name, &tally);
  }
  EXPECT_TRUE(tally.other_chosen.empty());
}

}  // namespace
}  // namespace aqv
