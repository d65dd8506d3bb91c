/// Route-equivalence suite for the end-to-end answering pipeline: on every
/// scenario where an equivalent rewriting exists, the complete-rewriting
/// route (any engine), the inverse-rules route, and the cost-planned route
/// must all return exactly the direct evaluation of the query over the
/// hidden base database — LMSS95's answering semantics meeting
/// Duschka-Genesereth's, with the pipeline as the integration point. Over
/// exact extents the complete route evaluates the first disjunct whose
/// expansion contains the query on its own, and the whole union only when
/// none does; its evaluation counters show which it ran.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "answering/answering.h"
#include "containment/containment.h"
#include "cq/parser.h"
#include "eval/certain.h"
#include "eval/materialize.h"
#include "service/service.h"
#include "util/rng.h"
#include "views/expansion.h"
#include "workload/datagen.h"
#include "workload/generator.h"
#include "workload/generators.h"
#include "workload/registry.h"

namespace aqv {
namespace {

AnswerRequest BaseRequest(const Query& q, const ViewSet& views,
                          const Database& base) {
  AnswerRequest request;
  request.query.disjuncts.push_back(q);
  request.views = &views;
  request.base = &base;
  return request;
}

Relation Answer(AnswerRequest request, AnswerRoute route,
                const std::string& engine = "") {
  request.route = route;
  if (!engine.empty()) request.engine = engine;
  auto resp = AnswerQuery(request);
  EXPECT_TRUE(resp.ok()) << AnswerRouteName(route) << "/" << engine << ": "
                         << resp.status().ToString();
  return std::move(resp).value().result;
}

/// The invariant: every route and engine reproduces direct evaluation.
void ExpectAllRoutesMatchDirect(const Query& q, const ViewSet& views,
                                const Database& base,
                                const std::string& context) {
  AnswerRequest request = BaseRequest(q, views, base);
  Relation direct = Answer(request, AnswerRoute::kDirect);
  Relation inverse = Answer(request, AnswerRoute::kInverseRules);
  EXPECT_TRUE(Relation::SameSet(direct, inverse))
      << context << ": inverse-rules route diverged";
  Relation cost = Answer(request, AnswerRoute::kCostBased);
  EXPECT_TRUE(Relation::SameSet(direct, cost))
      << context << ": cost route diverged";
  for (const std::string& engine : EngineNames()) {
    Relation complete =
        Answer(request, AnswerRoute::kCompleteRewriting, engine);
    EXPECT_TRUE(Relation::SameSet(direct, complete))
        << context << ": complete route via " << engine << " diverged";
  }
}

TEST(Answering, RouteRegistryRoundTrips) {
  ASSERT_EQ(AnswerRouteNames().size(), 4u);
  for (const std::string& name : AnswerRouteNames()) {
    auto route = AnswerRouteByName(name);
    ASSERT_TRUE(route.ok()) << name;
    EXPECT_EQ(AnswerRouteName(route.value()), name);
  }
  EXPECT_EQ(AnswerRouteByName("nope").status().code(), StatusCode::kNotFound);
}

TEST(Answering, RegistryScenarioRouteEquivalence) {
  // All three packaged scenarios have an equivalent rewriting (goodflights
  // / salesfull / mutual+samecites), so certain answers coincide with
  // q(D) and every route must agree exactly — the acceptance oracle.
  for (const std::string& name : ScenarioNames()) {
    for (uint64_t seed : {3u, 11u}) {
      Scenario s = MakeScenarioByName(name, seed, 60).value();
      // Self-check the premise the equivalence rests on.
      AnswerRequest probe = BaseRequest(s.query, s.views, s.base);
      probe.route = AnswerRoute::kCompleteRewriting;
      probe.engine = "lmss";
      auto lmss = AnswerQuery(probe);
      ASSERT_TRUE(lmss.ok()) << lmss.status().ToString();
      ASSERT_TRUE(lmss.value().exact)
          << name << ": expected an equivalent rewriting to exist";
      ExpectAllRoutesMatchDirect(s.query, s.views, s.base,
                                 name + "/seed:" + std::to_string(seed));
    }
  }
}

TEST(Answering, RandomizedChainRouteEquivalence) {
  // Chain of length 4 with hand-tiled covering views (equivalent rewriting
  // exists by construction: w1 ∘ w2 spans the chain, middles hidden) plus
  // random sub-chain noise views, on generated data.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Catalog cat;
    Rng rng(seed);
    ChainViewSpec vspec;
    vspec.chain.length = 4;
    vspec.num_views = 4;
    vspec.min_length = 1;
    vspec.max_length = 2;
    vspec.policy = DistinguishedPolicy::kEnds;
    Query q = MakeChainQuery(&cat, vspec.chain).value();
    ViewSet views = MakeChainViews(&cat, &rng, vspec).value();
    ASSERT_TRUE(
        views.Add(ParseQuery("w1(A, C) :- r1(A, B), r2(B, C).", &cat).value())
            .ok());
    ASSERT_TRUE(
        views.Add(ParseQuery("w2(C, E) :- r3(C, D), r4(D, E).", &cat).value())
            .ok());

    DataGenSpec dspec;
    dspec.tuples_per_relation = 40;
    dspec.domain_size = 6;
    Database base =
        MakeRandomDatabase(&cat, ExtensionalPredicates(cat), &rng, dspec);
    ExpectAllRoutesMatchDirect(q, views, base,
                               "chain/seed:" + std::to_string(seed));
  }
}

TEST(Answering, RandomizedStarRouteEquivalence) {
  // 3-ray star with one fully-exposed view per ray (equivalent rewriting
  // exists by construction) plus random multi-ray noise views.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Catalog cat;
    Rng rng(seed + 100);
    StarViewSpec vspec;
    vspec.star.rays = 3;
    vspec.num_views = 3;
    vspec.min_rays = 1;
    vspec.max_rays = 2;
    vspec.policy = DistinguishedPolicy::kAll;
    Query q = MakeStarQuery(&cat, vspec.star).value();
    ViewSet views = MakeStarViews(&cat, &rng, vspec).value();
    for (int ray = 1; ray <= 3; ++ray) {
      std::string rule = "t" + std::to_string(ray) + "(C, A) :- s" +
                         std::to_string(ray) + "(C, A).";
      ASSERT_TRUE(views.Add(ParseQuery(rule, &cat).value()).ok());
    }

    DataGenSpec dspec;
    dspec.tuples_per_relation = 30;
    dspec.domain_size = 5;
    Database base =
        MakeRandomDatabase(&cat, ExtensionalPredicates(cat), &rng, dspec);
    ExpectAllRoutesMatchDirect(q, views, base,
                               "star/seed:" + std::to_string(seed));
  }
}

TEST(Answering, NoCompleteRewritingYieldsTypedEmptyNotError) {
  // lmss finds no equivalent rewriting: the complete route returns a
  // sound, correctly-typed empty relation (the empty-union regression).
  Catalog cat;
  Query q = ParseQuery("q(X, Z) :- e(X, Y), f(Y, Z).", &cat).value();
  ViewSet views = ViewSet::Parse("ve(A, B) :- e(A, B).", &cat).value();
  Database base(&cat);
  base.Add(cat.FindPredicate("e").value(), {1, 2});
  base.Add(cat.FindPredicate("f").value(), {2, 3});

  AnswerRequest request = BaseRequest(q, views, base);
  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "lmss";
  auto resp = AnswerQuery(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp.value().exact);
  EXPECT_TRUE(resp.value().result.empty());
  EXPECT_EQ(resp.value().result.arity(), 2);
  EXPECT_EQ(resp.value().result.pred(), q.head().pred);
}

TEST(Answering, PartialRewritingsEvaluateOverMergedRelations) {
  // allow_base_atoms lets lmss emit a partial rewriting (view + base
  // atoms); the complete route must evaluate it over extents merged with
  // the base relations it reads, not extents alone (where the base atom
  // would silently match nothing), and must report complete = false.
  Catalog cat;
  Query q = ParseQuery("q(X, Z) :- e(X, Y), f(Y, Z).", &cat).value();
  ViewSet views = ViewSet::Parse("ve(A, B) :- e(A, B).", &cat).value();
  Database base(&cat);
  base.Add(cat.FindPredicate("e").value(), {1, 2});
  base.Add(cat.FindPredicate("f").value(), {2, 3});

  AnswerRequest request = BaseRequest(q, views, base);
  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "lmss";
  request.options.lmss.allow_base_atoms = true;
  auto resp = AnswerQuery(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp.value().complete);
  Relation direct = EvaluateQuery(q, base).value();
  EXPECT_TRUE(Relation::SameSet(resp.value().result, direct));
  EXPECT_EQ(resp.value().result.size(), 1u);  // (1, 3)

  // Without the base database the partial rewriting is not executable.
  AnswerRequest extents_only = request;
  Database extents = MaterializeViews(views, base).value();
  extents_only.base = nullptr;
  extents_only.extents = &extents;
  auto rejected = AnswerQuery(extents_only);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(Answering, CachedExtentsSkipMaterialization) {
  Scenario s = MakeWarehouseScenario(7, 50).value();
  Database extents = MaterializeViews(s.views, s.base).value();

  AnswerRequest on_demand = BaseRequest(s.query, s.views, s.base);
  on_demand.route = AnswerRoute::kInverseRules;
  auto from_base = AnswerQuery(on_demand);
  ASSERT_TRUE(from_base.ok());
  EXPECT_GT(from_base.value().stats.materialize.probes, 0u);

  AnswerRequest cached = on_demand;
  cached.extents = &extents;
  auto from_cache = AnswerQuery(cached);
  ASSERT_TRUE(from_cache.ok());
  EXPECT_EQ(from_cache.value().stats.materialize.probes, 0u);
  EXPECT_EQ(from_cache.value().stats.materialize.intermediate_rows, 0u);
  EXPECT_TRUE(Relation::SameSet(from_base.value().result,
                                from_cache.value().result));

  // Extents alone (no base) also serve the view-side routes — the pure
  // LAV regime where the mediator never sees base data.
  AnswerRequest extents_only;
  extents_only.query.disjuncts.push_back(s.query);
  extents_only.views = &s.views;
  extents_only.extents = &extents;
  extents_only.route = AnswerRoute::kCostBased;
  auto lav = AnswerQuery(extents_only);
  ASSERT_TRUE(lav.ok()) << lav.status().ToString();
  EXPECT_TRUE(lav.value().complete);  // only complete plans are executable
  EXPECT_TRUE(
      Relation::SameSet(lav.value().result, from_base.value().result));
}

/// answer_cold's shape on scenario seed 289: a MiniCon union of a few
/// hundred disjuncts over views with existential columns.
Scenario Seed289Scenario() {
  GeneratedScenarioSpec spec;
  spec.seed = 289;
  spec.num_views = 60;
  spec.facts_per_predicate = 60;
  spec.domain_size = 100;
  auto scenario = GenerateScenario(spec);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

/// The index of the first disjunct of `u` whose expansion contains `q`,
/// or -1.
int FirstEquivalentDisjunct(const Query& q, const UnionQuery& u,
                            const ViewSet& views) {
  for (size_t i = 0; i < u.disjuncts.size(); ++i) {
    auto expansion = ExpandRewriting(u.disjuncts[i], views);
    EXPECT_TRUE(expansion.ok()) << expansion.status().ToString();
    if (!expansion.ok() || !expansion->satisfiable) continue;
    auto contains = IsContainedIn(q, expansion->query);
    EXPECT_TRUE(contains.ok()) << contains.status().ToString();
    if (contains.ok() && *contains) return static_cast<int>(i);
  }
  return -1;
}

/// `u` evaluated over `extents` on its own, with its EvalStats.
EvalStats UnionWork(const Query& q, const UnionQuery& u,
                    const Database& extents, Relation* rows = nullptr) {
  EvalStats stats;
  auto result = EvaluateRewritingUnion(q, u, extents, {}, &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (rows != nullptr && result.ok()) *rows = std::move(result).value();
  return stats;
}

/// The same evaluation work. Whether an index lookup builds or hits
/// depends on what ran on the extents before, so only their sum counts.
void ExpectSameWork(const EvalStats& got, const EvalStats& want) {
  EXPECT_EQ(got.intermediate_rows, want.intermediate_rows);
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.index_builds + got.index_hits,
            want.index_builds + want.index_hits);
}

TEST(Answering, CompleteRouteProjectsExistentialViewColumns) {
  // Seed 289's union has disjuncts such as
  //   q(X0, X3) :- v25(X0, X1, F4), v27(X1, F5, F6, X2),
  //                v12(X2, F7, F8, X3).
  // Carrying every variable to the last join step emitted 6,937,917
  // intermediate rows for the union; keeping only live variables emits
  // a few hundred thousand. The certain answers are the direct route's
  // rows either way.
  Scenario s = Seed289Scenario();
  Relation direct = EvaluateQuery(s.query, s.base).value();
  EXPECT_EQ(direct.size(), 264u);
  Database extents = MaterializeViews(s.views, s.base).value();
  RewriteRequest rewrite;
  rewrite.query.disjuncts.push_back(s.query);
  rewrite.views = &s.views;
  auto minicon = RunEngine("minicon", rewrite);
  ASSERT_TRUE(minicon.ok()) << minicon.status().ToString();
  EXPECT_GT(minicon->rewritings.size(), 100);

  Relation rows;
  EvalStats stats = UnionWork(s.query, minicon->rewritings, extents, &rows);
  EXPECT_TRUE(Relation::SameSet(direct, rows));
  EXPECT_LT(stats.intermediate_rows, 1'000'000u);
}

TEST(Answering, CompleteRouteEvaluatesTheFirstEquivalentDisjunctAlone) {
  // Over exact extents, a disjunct whose expansion contains q returns all
  // of q(D) by itself: the complete route evaluates that one and still
  // reports the whole union it executes for.
  Scenario s = Seed289Scenario();
  Database extents = MaterializeViews(s.views, s.base).value();
  AnswerRequest request = BaseRequest(s.query, s.views, s.base);
  request.extents = &extents;
  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "minicon";
  auto complete = AnswerQuery(request);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();

  RewriteRequest rewrite;
  rewrite.query = request.query;
  rewrite.views = &s.views;
  auto minicon = RunEngine("minicon", rewrite);
  ASSERT_TRUE(minicon.ok()) << minicon.status().ToString();
  ASSERT_EQ(complete->executed.size(), minicon->rewritings.size());
  EXPECT_GT(complete->executed.size(), 100);
  for (int i = 0; i < complete->executed.size(); ++i) {
    EXPECT_EQ(complete->executed.disjuncts[i].ToString(),
              minicon->rewritings.disjuncts[i].ToString());
  }
  EXPECT_FALSE(complete->exact);  // minicon reports no equivalence

  int first = FirstEquivalentDisjunct(s.query, complete->executed, s.views);
  ASSERT_GE(first, 0);
  UnionQuery alone;
  alone.disjuncts.push_back(complete->executed.disjuncts[first]);
  ExpectSameWork(complete->stats.eval, UnionWork(s.query, alone, extents));
  EXPECT_TRUE(Relation::SameSet(complete->result,
                                EvaluateQuery(s.query, s.base).value()));
}

TEST(Answering, CompleteRouteEvaluatesTheWholeUnionWithoutAnEquivalent) {
  // va and vb each restrict the join further, and ve exposes no f: no
  // disjunct is equivalent, and each contributes rows of its own.
  Catalog cat;
  Query q = ParseQuery("q(X, Z) :- e(X, Y), f(Y, Z).", &cat).value();
  ViewSet views = ViewSet::Parse(
                      "va(A, C) :- e(A, B), f(B, C), g(A).\n"
                      "vb(A, C) :- e(A, B), f(B, C), h(C).\n"
                      "ve(A) :- e(A, B).",
                      &cat)
                      .value();
  Database base(&cat);
  PredId e = cat.FindPredicate("e").value();
  PredId f = cat.FindPredicate("f").value();
  base.Add(e, {1, 2});
  base.Add(e, {3, 4});
  base.Add(f, {2, 5});
  base.Add(f, {4, 6});
  base.Add(cat.FindPredicate("g").value(), {1});
  base.Add(cat.FindPredicate("h").value(), {6});
  Database extents = MaterializeViews(views, base).value();

  AnswerRequest request = BaseRequest(q, views, base);
  request.extents = &extents;
  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "minicon";
  auto complete = AnswerQuery(request);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  ASSERT_EQ(complete->executed.size(), 2);
  EXPECT_EQ(FirstEquivalentDisjunct(q, complete->executed, views), -1);
  Relation rows;
  ExpectSameWork(complete->stats.eval,
                 UnionWork(q, complete->executed, extents, &rows));
  EXPECT_TRUE(Relation::SameSet(complete->result, rows));
  EXPECT_EQ(complete->result.size(), 2u);  // (1, 5) and (3, 6)
}

TEST(Answering, CompleteRouteUsesAnEquivalentDisjunctUnderComparisons) {
  // With comparisons the containment test is the linearization one.
  // MiniCon lists vlow(X, Z), which restricts X further and is only
  // contained, before the equivalent vr-vs join: the route walks past the
  // first disjunct and evaluates the second alone.
  Catalog cat;
  Query q = ParseQuery("q(X, Z) :- r(X, Y), s(Y, Z), X < Z.", &cat).value();
  ViewSet views = ViewSet::Parse(
                      "vlow(A, C) :- r(A, B), s(B, C), A < C, A < 5.\n"
                      "vr(A, B) :- r(A, B).\n"
                      "vs(B, C) :- s(B, C).",
                      &cat)
                      .value();
  Database base(&cat);
  PredId r = cat.FindPredicate("r").value();
  PredId s = cat.FindPredicate("s").value();
  base.Add(r, {1, 2});
  base.Add(r, {3, 4});
  base.Add(r, {6, 1});
  base.Add(s, {2, 5});
  base.Add(s, {4, 1});
  base.Add(s, {1, 9});
  Database extents = MaterializeViews(views, base).value();

  AnswerRequest request = BaseRequest(q, views, base);
  request.extents = &extents;
  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "minicon";
  auto complete = AnswerQuery(request);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  ASSERT_EQ(complete->executed.size(), 2);
  int first = FirstEquivalentDisjunct(q, complete->executed, views);
  ASSERT_EQ(first, 1);
  UnionQuery alone;
  alone.disjuncts.push_back(complete->executed.disjuncts[first]);
  ExpectSameWork(complete->stats.eval, UnionWork(q, alone, extents));
  Relation direct = EvaluateQuery(q, base).value();
  EXPECT_EQ(direct.size(), 2u);  // (1, 5) and (6, 9)
  EXPECT_TRUE(Relation::SameSet(complete->result, direct));
}

TEST(Answering, CostRouteReportsPlansAndPicksCheapest) {
  Scenario s = MakeWarehouseScenario(5, 200).value();
  AnswerRequest request = BaseRequest(s.query, s.views, s.base);
  request.route = AnswerRoute::kCostBased;
  auto resp = AnswerQuery(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const AnswerResponse& r = resp.value();
  ASSERT_GE(r.plans.best, 0);
  ASSERT_FALSE(r.plans.plans.empty());
  // The chosen plan is the cheapest of the reported plans.
  for (const PlanChoice& plan : r.plans.plans) {
    EXPECT_GE(plan.estimated_cost,
              r.plans.plans[r.plans.best].estimated_cost);
  }
  // The pre-joined salesfull view beats re-joining the star schema.
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.exact);
  // Every reported plan carries its producing engine.
  bool has_direct = false;
  for (const PlanChoice& plan : r.plans.plans) {
    EXPECT_FALSE(plan.engine.empty());
    has_direct |= plan.engine == "direct";
  }
  EXPECT_TRUE(has_direct);
}

TEST(Answering, UnionSourceSupportedOnExtentRoutesOnly) {
  // Union sources (two rules, one head predicate) materialize correctly,
  // but the rewriting engines and inverse rules soundly refuse them.
  Catalog cat;
  Query q = ParseQuery("q(X) :- p(X).", &cat).value();
  ViewSet views;
  ASSERT_TRUE(views.Add(ParseQuery("u(X) :- p(X).", &cat).value()).ok());
  ASSERT_TRUE(
      views.AddRule(ParseQuery("u(X) :- p2(X).", &cat).value()).ok());
  Database base(&cat);
  base.Add(cat.FindPredicate("p").value(), {1});
  base.Add(cat.FindPredicate("p2").value(), {2});

  AnswerRequest request = BaseRequest(q, views, base);
  Relation direct = Answer(request, AnswerRoute::kDirect);
  EXPECT_EQ(direct.size(), 1u);

  request.route = AnswerRoute::kInverseRules;
  auto ir = AnswerQuery(request);
  ASSERT_FALSE(ir.ok());
  EXPECT_EQ(ir.status().code(), StatusCode::kUnimplemented);

  request.route = AnswerRoute::kCompleteRewriting;
  request.engine = "minicon";
  auto mc = AnswerQuery(request);
  ASSERT_FALSE(mc.ok());
  EXPECT_EQ(mc.status().code(), StatusCode::kUnimplemented);
}

TEST(Answering, RequestValidation) {
  Catalog cat;
  Query q = ParseQuery("q(X) :- p(X).", &cat).value();
  ViewSet views = ViewSet::Parse("v(X) :- p(X).", &cat).value();
  Database base(&cat);

  AnswerRequest empty;
  EXPECT_EQ(AnswerQuery(empty).status().code(), StatusCode::kInvalidArgument);

  AnswerRequest no_data;
  no_data.query.disjuncts.push_back(q);
  no_data.views = &views;
  EXPECT_EQ(AnswerQuery(no_data).status().code(),
            StatusCode::kInvalidArgument);

  AnswerRequest direct_needs_base;
  direct_needs_base.query.disjuncts.push_back(q);
  direct_needs_base.route = AnswerRoute::kDirect;
  EXPECT_EQ(AnswerQuery(direct_needs_base).status().code(),
            StatusCode::kInvalidArgument);

  AnswerRequest bad_engine;
  bad_engine.query.disjuncts.push_back(q);
  bad_engine.views = &views;
  bad_engine.base = &base;
  bad_engine.engine = "nope";
  EXPECT_EQ(AnswerQuery(bad_engine).status().code(), StatusCode::kNotFound);
}

/// Submits `run(i)` for every i in [0, n) as its own pool task and
/// collects the results in order through futures.
template <typename Run>
auto RunOnPool(RewriteService& service, size_t n, const Run& run) {
  using R = decltype(run(size_t{0}));
  std::vector<std::future<R>> futures;
  for (size_t i = 0; i < n; ++i) {
    auto task = std::make_shared<std::packaged_task<R()>>(
        [&run, i] { return run(i); });
    futures.push_back(task->get_future());
    Status submitted = service.SubmitTask([task] { (*task)(); });
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
  }
  std::vector<R> results;
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

TEST(Answering, ServiceAnswerBatchMatchesSerialPipeline) {
  // Answering on the service pool, one task per request: identical
  // payloads to serial AnswerQuery calls, for the whole scenario × route ×
  // engine grid over extents materialized once per scenario.
  std::vector<std::unique_ptr<Scenario>> scenarios;
  std::vector<std::unique_ptr<Database>> extents;
  std::vector<AnswerRequest> requests;
  std::vector<std::string> labels;
  for (const std::string& name : ScenarioNames()) {
    scenarios.push_back(std::make_unique<Scenario>(
        MakeScenarioByName(name, /*seed=*/9, /*db_size=*/40).value()));
    const Scenario& s = *scenarios.back();
    extents.push_back(
        std::make_unique<Database>(MaterializeViews(s.views, s.base).value()));
    for (AnswerRoute route :
         {AnswerRoute::kDirect, AnswerRoute::kCompleteRewriting,
          AnswerRoute::kInverseRules, AnswerRoute::kCostBased}) {
      // Only the complete route names an engine; the cost route plans
      // across every registered engine itself.
      std::vector<std::string> engines = {""};
      if (route == AnswerRoute::kCompleteRewriting) engines = EngineNames();
      for (const std::string& engine : engines) {
        AnswerRequest request = BaseRequest(s.query, s.views, s.base);
        request.extents = extents.back().get();
        request.route = route;
        if (!engine.empty()) request.engine = engine;
        requests.push_back(std::move(request));
        labels.push_back(name + "/" + std::string(AnswerRouteName(route)) +
                         (engine.empty() ? "" : "/" + engine));
      }
    }
  }
  ASSERT_EQ(requests.size(),
            ScenarioNames().size() * (3 + EngineNames().size()));

  ServiceOptions options;
  options.num_workers = 4;
  RewriteService service(options);
  std::vector<Result<AnswerResponse>> results = RunOnPool(
      service, requests.size(),
      [&requests](size_t i) { return AnswerQuery(requests[i]); });
  ASSERT_EQ(results.size(), requests.size());
  EXPECT_EQ(service.lifetime_stats().ok, requests.size());
  EXPECT_EQ(service.lifetime_stats().failed, 0u);

  for (size_t i = 0; i < requests.size(); ++i) {
    const Result<AnswerResponse>& via_service = results[i];
    ASSERT_TRUE(via_service.ok())
        << labels[i] << ": " << via_service.status().ToString();
    auto serial = AnswerQuery(requests[i]);
    ASSERT_TRUE(serial.ok()) << labels[i];
    EXPECT_TRUE(Relation::SameSet(serial.value().result,
                                  via_service.value().result))
        << labels[i];
    EXPECT_EQ(serial.value().exact, via_service.value().exact) << labels[i];
  }
}

TEST(Answering, MixedJobKindsShareThePool) {
  // Rewrite tasks and answering tasks submitted concurrently from two
  // threads interleave on one pool.
  Scenario s = MakeTravelScenario(13, 40).value();
  ServiceOptions options;
  options.num_workers = 2;
  RewriteService service(options);
  constexpr size_t kCopies = 3;

  RewriteRequest rewrite;
  rewrite.query.disjuncts.push_back(s.query);
  rewrite.views = &s.views;
  AnswerRequest answer = BaseRequest(s.query, s.views, s.base);
  answer.route = AnswerRoute::kInverseRules;

  std::vector<Result<RewriteResponse>> rewrites;
  std::vector<Result<AnswerResponse>> answers;
  std::thread rewriter([&] {
    rewrites = RunOnPool(service, kCopies, [&rewrite](size_t) {
      return RunEngine("minicon", rewrite);
    });
  });
  std::thread answerer([&] {
    answers = RunOnPool(service, kCopies,
                        [&answer](size_t) { return AnswerQuery(answer); });
  });
  rewriter.join();
  answerer.join();
  ASSERT_EQ(rewrites.size(), kCopies);
  ASSERT_EQ(answers.size(), kCopies);
  for (size_t i = 0; i < kCopies; ++i) {
    ASSERT_TRUE(rewrites[i].ok()) << rewrites[i].status().ToString();
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
  }

  // The two kinds agree: evaluating the minicon union over extents equals
  // the inverse-rules certain answers.
  Database extents = MaterializeViews(s.views, s.base).value();
  for (size_t i = 0; i < kCopies; ++i) {
    Relation via_union =
        EvaluateRewritingUnion(s.query, rewrites[i].value().rewritings,
                               extents)
            .value();
    EXPECT_TRUE(Relation::SameSet(via_union, answers[i].value().result));
  }

  // Lifetime stats count both kinds.
  EXPECT_EQ(service.lifetime_stats().requests, 2 * kCopies);
}

}  // namespace
}  // namespace aqv
