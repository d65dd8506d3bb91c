/// F9 — End-to-end query answering over materialized views: route × engine
/// × scenario × data size. Where F5 measured one hand-picked rewriting and
/// F8 measured rewriting throughput, F9 measures the full answering
/// pipeline (answering/answering.h) producing actual tuples:
///
///   BM_F9_Direct        q over the base database — the ground-truth
///                       baseline every view route is compared against.
///   BM_F9_Complete      the named engine's rewriting union evaluated
///                       over (pre-materialized) view extents.
///   BM_F9_InverseRules  certain answers via the Skolem datalog program —
///                       rule construction is linear, cost sits in
///                       evaluation (Duschka-Genesereth trade).
///   BM_F9_CostPlanned   ChooseBestPlan across the planner's default
///                       engine list, then execute the cheapest plan.
///   BM_F9_ServiceBatch  the whole route × engine grid as one answering
///                       batch on the concurrent service's shared pool.
///
/// All variants answer the same seeded scenarios on the same data, so
/// items/s and the `answers` counters compare directly; `exact` reports
/// whether the route returned q(D) (1) or a certain-answer
/// under-approximation. On the registry scenarios every route is exact —
/// the route-equivalence invariant tests/test_answering.cc enforces.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "answering/answering.h"
#include "bench_common.h"
#include "eval/materialize.h"
#include "service/service.h"
#include "workload/registry.h"

namespace aqv {
namespace {

struct F9Setup {
  std::unique_ptr<Scenario> scenario;
  Database extents;
};

F9Setup MakeSetup(const std::string& scenario_name, int db_size) {
  F9Setup setup;
  setup.scenario = std::make_unique<Scenario>(bench::Unwrap(
      MakeScenarioByName(scenario_name, /*seed=*/21, db_size), "scenario"));
  setup.extents = bench::Unwrap(
      MaterializeViews(setup.scenario->views, setup.scenario->base),
      "materialize");
  return setup;
}

AnswerRequest MakeRequest(const F9Setup& setup, AnswerRoute route,
                          const std::string& engine) {
  AnswerRequest request;
  request.query.disjuncts.push_back(setup.scenario->query);
  request.views = &setup.scenario->views;
  request.base = &setup.scenario->base;
  request.extents = &setup.extents;
  request.route = route;
  request.engine = engine;
  return request;
}

void RunRoute(benchmark::State& state, const std::string& scenario_name,
              AnswerRoute route, const std::string& engine) {
  F9Setup setup = MakeSetup(scenario_name, static_cast<int>(state.range(0)));
  AnswerRequest request = MakeRequest(setup, route, engine);
  size_t answers = 0;
  bool exact = false;
  for (auto _ : state) {
    AnswerResponse resp;
    if (!bench::UnwrapOrSkip(AnswerQuery(request), state, &resp)) return;
    answers = resp.result.size();
    exact = resp.exact;
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["exact"] = exact ? 1.0 : 0.0;
}

/// The full grid as one mixed batch through the service's answering job
/// kind: 3 scenarios × (direct + inverse-rules + cost + 4 complete-route
/// engines) per repeat.
void RunServiceBatch(benchmark::State& state, int workers) {
  AnswerScenarioBatch batch = bench::Unwrap(
      MakeAnswerBatchFromScenarios(
          ScenarioNames(), EngineNames(),
          {AnswerRoute::kDirect, AnswerRoute::kCompleteRewriting,
           AnswerRoute::kInverseRules, AnswerRoute::kCostBased},
          /*repeats=*/2, /*seed=*/21,
          static_cast<int>(state.range(0))),
      "answer batch");
  ServiceOptions options;
  options.num_workers = workers;
  RewriteService service(options);
  ServiceStats last;
  for (auto _ : state) {
    AnswerBatchResult result;
    if (!bench::UnwrapOrSkip(service.AnswerBatch(batch.requests), state,
                             &result)) {
      return;
    }
    last = result.stats;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  state.counters["throughput_rps"] = last.throughput_rps;
  state.counters["p50_ms"] = last.p50_ms;
  state.counters["p95_ms"] = last.p95_ms;
}

void F9Args(benchmark::internal::Benchmark* b) {
  b->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  for (const std::string& scenario : ScenarioNames()) {
    std::string direct = "BM_F9_Direct/" + scenario;
    benchmark::RegisterBenchmark(
        direct.c_str(),
        [scenario](benchmark::State& state) {
          RunRoute(state, scenario, AnswerRoute::kDirect, "");
        })
        ->Apply(F9Args);
    std::string ir = "BM_F9_InverseRules/" + scenario;
    benchmark::RegisterBenchmark(
        ir.c_str(),
        [scenario](benchmark::State& state) {
          RunRoute(state, scenario, AnswerRoute::kInverseRules, "");
        })
        ->Apply(F9Args);
    std::string cost = "BM_F9_CostPlanned/" + scenario;
    benchmark::RegisterBenchmark(
        cost.c_str(),
        [scenario](benchmark::State& state) {
          RunRoute(state, scenario, AnswerRoute::kCostBased, "");
        })
        ->Apply(F9Args);
    for (const std::string& engine : EngineNames()) {
      std::string complete = "BM_F9_Complete/" + scenario + "/" + engine;
      benchmark::RegisterBenchmark(
          complete.c_str(),
          [scenario, engine](benchmark::State& state) {
            RunRoute(state, scenario, AnswerRoute::kCompleteRewriting,
                     engine);
          })
          ->Apply(F9Args);
    }
  }
  for (int workers : {1, 4}) {
    std::string name = "BM_F9_ServiceBatch/workers:" + std::to_string(workers);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [workers](benchmark::State& state) {
          RunServiceBatch(state, workers);
        })
        ->Apply(F9Args)
        ->UseRealTime();
  }
  // The 10^6-row block: the warehouse star schema at full scale, on the
  // routes that stay tractable there (inverse-rules re-derives the whole
  // extent through the Skolem program and is measured at the small sizes
  // above instead).
  struct MillionRoute {
    const char* name;
    AnswerRoute route;
    const char* engine;
  };
  for (MillionRoute r : {MillionRoute{"direct", AnswerRoute::kDirect, ""},
                         MillionRoute{"complete-lmss",
                                      AnswerRoute::kCompleteRewriting, "lmss"},
                         MillionRoute{"cost", AnswerRoute::kCostBased, ""}}) {
    std::string name = std::string("BM_F9_MillionRow/warehouse/") + r.name;
    AnswerRoute route = r.route;
    std::string engine = r.engine;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [route, engine](benchmark::State& state) {
          RunRoute(state, "warehouse", route, engine);
        })
        ->Arg(1'000'000)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F9", "end-to-end answering over materialized views: "
                           "route x engine x scenario x data size");
  aqv::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
