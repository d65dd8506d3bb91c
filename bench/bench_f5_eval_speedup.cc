/// F5 — The optimization payoff LMSS motivates: answering the query from
/// materialized views versus recomputing the joins over base tables, on the
/// warehouse star-schema scenario, across database sizes up to a 10^6-row
/// fact table.
///
/// Every evaluation benchmark runs over a shared setup whose relation index
/// caches are primed — the steady state of a server answering repeated
/// queries over static extents — so each reports index_hits > 0 and
/// index_builds == 0.
///
/// BM_F5_SelectiveAnswer is the headline: a point query with a constant
/// (one product category out of db_size/100) that probes cached postings
/// instead of scanning the fact table. View materialization cost
/// (amortized in practice) is reported separately.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "rewriting/lmss.h"
#include "rewriting/planner.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

struct F5Setup {
  Scenario scenario;
  Database extents;
  Query rewriting;
  Query selective;
};

/// The executed rewriting is the *planner's* pick, not the first one the
/// enumeration happens to produce — enumeration order is not cost order
/// (an early 3-atom plan loses to the single pre-join at scale).
std::unique_ptr<F5Setup> MakeSetup(int db_size) {
  auto setup = std::make_unique<F5Setup>(
      F5Setup{bench::Unwrap(MakeWarehouseScenario(17, db_size), "scenario"),
              Database(), Query(), Query()});
  setup->extents = bench::Unwrap(
      MaterializeViews(setup->scenario.views, setup->scenario.base),
      "materialize");
  PlannerOptions popts;
  popts.include_direct_plan = false;
  PlannerResult plan = bench::Unwrap(
      ChooseBestPlan(setup->scenario.query, setup->scenario.views,
                     ExtentStats::FromDatabase(setup->extents),
                     ExtentStats::FromDatabase(setup->scenario.base), popts),
      "planner");
  if (plan.best < 0) {
    std::fprintf(stderr, "F5: no equivalent rewriting in warehouse scenario\n");
    std::abort();
  }
  setup->rewriting = plan.plans[plan.best].rewriting;
  // One product category (5001) out of db_size/100: ~1% of products, so
  // the answer is small while the scanned-if-unindexed fact table is not.
  setup->selective = bench::Unwrap(
      ParseQuery("qsel(C, R) :- sale(C, P), product(P, 5001), customer(C, R).",
                 setup->scenario.catalog.get()),
      "selective query");
  // Prime the relation index caches so the evaluation benchmarks measure
  // the warm steady state from the first iteration (the 1x CI smoke
  // included).
  bench::Unwrap(EvaluateQuery(setup->scenario.query, setup->scenario.base),
                "prime direct");
  bench::Unwrap(EvaluateQuery(setup->rewriting, setup->extents),
                "prime rewriting");
  bench::Unwrap(EvaluateQuery(setup->selective, setup->scenario.base),
                "prime selective");
  return setup;
}

/// Benchmark-library runners re-enter the registered function per
/// repetition; the 10^6-row scenario is too expensive to rebuild each
/// time, so setups are cached per size for the process lifetime.
F5Setup& GetSetup(int db_size) {
  static std::map<int, std::unique_ptr<F5Setup>>* cache =
      new std::map<int, std::unique_ptr<F5Setup>>();
  std::unique_ptr<F5Setup>& slot = (*cache)[db_size];
  if (slot == nullptr) slot = MakeSetup(db_size);
  return *slot;
}

void ExportEvalCounters(benchmark::State& state, const EvalStats& stats,
                        size_t answers) {
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["intermediate_rows"] =
      static_cast<double>(stats.intermediate_rows);
  state.counters["probes"] = static_cast<double>(stats.probes);
  state.counters["index_builds"] = static_cast<double>(stats.index_builds);
  state.counters["index_hits"] = static_cast<double>(stats.index_hits);
}

void RunEval(benchmark::State& state, const Query& q, const Database& db) {
  size_t answers = 0;
  EvalStats stats;
  for (auto _ : state) {
    stats = EvalStats();
    Relation r = bench::Unwrap(EvaluateQuery(q, db, {}, &stats), "eval");
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  ExportEvalCounters(state, stats, answers);
}

void BM_F5_DirectOverBase(benchmark::State& state) {
  F5Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  RunEval(state, setup.scenario.query, setup.scenario.base);
  state.counters["base_tuples"] =
      static_cast<double>(setup.scenario.base.TotalTuples());
}

void BM_F5_ViaRewriting(benchmark::State& state) {
  F5Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  RunEval(state, setup.rewriting, setup.extents);
  state.counters["extent_tuples"] =
      static_cast<double>(setup.extents.TotalTuples());
}

void BM_F5_SelectiveAnswer(benchmark::State& state) {
  F5Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  RunEval(state, setup.selective, setup.scenario.base);
  state.counters["base_tuples"] =
      static_cast<double>(setup.scenario.base.TotalTuples());
}

void BM_F5_MaterializationCost(benchmark::State& state) {
  F5Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Database extents = bench::Unwrap(
        MaterializeViews(setup.scenario.views, setup.scenario.base),
        "materialize");
    benchmark::DoNotOptimize(extents);
  }
}

void BM_F5_RewritePlanningCost(benchmark::State& state) {
  F5Setup& setup = GetSetup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LmssResult res = bench::Unwrap(
        FindEquivalentRewritings(setup.scenario.query, setup.scenario.views),
        "lmss");
    benchmark::DoNotOptimize(res);
  }
}

/// Fact-table sizes, labeled so reports read BM_F5_.../size:<size>.
void F5Args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"size"});
  for (int size : {10'000, 100'000, 1'000'000}) b->Args({size});
}

BENCHMARK(BM_F5_DirectOverBase)->Apply(F5Args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_F5_ViaRewriting)->Apply(F5Args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_F5_SelectiveAnswer)->Apply(F5Args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_F5_MaterializationCost)
    ->Apply(F5Args)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_F5_RewritePlanningCost)
    ->Apply(F5Args)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F5", "answering from views vs base tables, warehouse "
                           "scenario (arg: fact-table size)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
