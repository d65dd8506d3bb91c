/// F8 — Batch throughput of the concurrent rewriting service: worker count
/// × batch size, against the serial baseline the service replaces (direct
/// per-request RewritingEngine calls). Per-request latency has an
/// NP-hardness floor (PAPER.md Thms 3.1/3.3), so the service wins on
/// throughput through parallelism alone; the opt-in containment oracle
/// keeps a serial arm of its own:
///
///   BM_F8_SerialBaseline      direct calls, no cache — the pre-service
///                             state of the world.
///   BM_F8_SerialSharedOracle  direct calls sharing one caller-owned
///                             oracle — the opt-in memoization path.
///   BM_F8_ServiceCold         fresh service per iteration (thread spawn
///                             included) — one-shot batch cost.
///   BM_F8_ServiceSteady       one long-lived service — the steady-state
///                             regime of a resident server.
///
/// All variants process identical mixed-scenario batches from
/// MakeBatchFromScenarios, so items/s numbers compare directly; counters
/// surface the service's own ServiceStats (throughput, p50/p95).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "containment/oracle.h"
#include "frontend/replay.h"
#include "frontend/session.h"
#include "rewriting/engine.h"
#include "service/batch.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// One mixed batch: every scenario × every engine × `repeats` fresh
/// instances (batch size = 3 scenarios × 4 engines × repeats).
std::unique_ptr<ScenarioRequestBatch> MakeBatch(int repeats) {
  auto batch = std::make_unique<ScenarioRequestBatch>(bench::Unwrap(
      MakeBatchFromScenarios(ScenarioNames(), EngineNames(), repeats,
                             /*seed=*/7, /*db_size=*/50),
      "scenario batch"));
  return batch;
}

void ReportServiceStats(benchmark::State& state, const ServiceStats& stats) {
  state.counters["throughput_rps"] = stats.throughput_rps;
  state.counters["p50_ms"] = stats.p50_ms;
  state.counters["p95_ms"] = stats.p95_ms;
}

void RunSerial(benchmark::State& state, int repeats, bool shared_oracle) {
  std::unique_ptr<ScenarioRequestBatch> batch = MakeBatch(repeats);
  ContainmentOracle oracle;
  for (auto _ : state) {
    for (size_t i = 0; i < batch->size(); ++i) {
      RewriteRequest request = batch->requests[i];
      if (shared_oracle) request.options.oracle = &oracle;
      RewriteResponse resp;
      if (!bench::UnwrapOrSkip(RunEngine(batch->engines[i], request), state,
                               &resp)) {
        return;
      }
      benchmark::DoNotOptimize(resp);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch->size()));
  if (shared_oracle) {
    state.counters["oracle_hit_rate"] = oracle.stats().hit_rate();
  }
}

void RunServiceCold(benchmark::State& state, int repeats, int workers) {
  std::unique_ptr<ScenarioRequestBatch> batch = MakeBatch(repeats);
  std::vector<ServiceRequest> requests = ToServiceRequests(*batch);
  ServiceStats last;
  for (auto _ : state) {
    ServiceOptions options;
    options.num_workers = workers;
    RewriteService service(options);
    BatchResult result;
    if (!bench::UnwrapOrSkip(service.RewriteBatch(requests), state, &result)) {
      return;
    }
    last = result.stats;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch->size()));
  ReportServiceStats(state, last);
}

void RunServiceSteady(benchmark::State& state, int repeats, int workers) {
  std::unique_ptr<ScenarioRequestBatch> batch = MakeBatch(repeats);
  std::vector<ServiceRequest> requests = ToServiceRequests(*batch);
  ServiceOptions options;
  options.num_workers = workers;
  RewriteService service(options);
  ServiceStats last;
  for (auto _ : state) {
    BatchResult result;
    if (!bench::UnwrapOrSkip(service.RewriteBatch(requests), state, &result)) {
      return;
    }
    last = result.stats;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch->size()));
  ReportServiceStats(state, last);
}

/// The repeated-query regime of a resident server — fresh sessions (fresh
/// catalogs) re-running identical rewrite probes against one
/// server-lifetime plan cache, deciding containment directly as the
/// server does. `repeats` is the curve axis; the plan hit rate approaches
/// 1 as repeats grow, because only the first session pays for rewrite
/// engine runs (plan-cache keys are rendered text, so every later
/// session's probes hit despite their brand-new catalogs).
void RunSharedCacheRepeats(benchmark::State& state, int repeats) {
  std::vector<std::string> script;
  {
    Scenario scenario = bench::Unwrap(
        MakeScenarioByName("warehouse", /*seed=*/7, /*db_size=*/50),
        "scenario");
    std::string text =
        bench::Unwrap(ScriptFromScenario(scenario), "script");
    size_t at = 0, nl;
    while ((nl = text.find('\n', at)) != std::string::npos) {
      script.push_back(text.substr(at, nl - at));
      at = nl + 1;
    }
  }
  script.push_back("rewrite with lmss");
  script.push_back("rewrite with minicon");
  // Answers are never plan-cached, so this probe runs the engine on every
  // repeat (the lmss route poses containment questions even when the
  // rewrite itself was a plan-cache hit).
  script.push_back("answer route complete with lmss");
  RewritePlanCache plans;
  for (auto _ : state) {
    for (int r = 0; r < repeats; ++r) {
      SessionOptions options;
      options.plan_cache = &plans;
      Session session(options);
      for (const std::string& line : script) {
        CommandResult result = session.Execute(line);
        if (!result.ok()) {
          state.SkipWithError(result.status.ToString().c_str());
          return;
        }
        benchmark::DoNotOptimize(result);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * repeats);
  state.counters["plan_hit_rate"] = plans.stats().hit_rate();
}

std::string BatchTag(int repeats) {
  // 3 scenarios × 4 engines per repeat.
  return "/batch:" + std::to_string(static_cast<size_t>(repeats) *
                                    ScenarioNames().size() *
                                    EngineNames().size());
}

void RegisterAll() {
  for (int repeats : {2, 8}) {
    std::string serial = "BM_F8_SerialBaseline" + BatchTag(repeats);
    benchmark::RegisterBenchmark(serial.c_str(),
                                 [repeats](benchmark::State& state) {
                                   RunSerial(state, repeats, false);
                                 })
        ->Unit(benchmark::kMillisecond);
    std::string cached = "BM_F8_SerialSharedOracle" + BatchTag(repeats);
    benchmark::RegisterBenchmark(cached.c_str(),
                                 [repeats](benchmark::State& state) {
                                   RunSerial(state, repeats, true);
                                 })
        ->Unit(benchmark::kMillisecond);
    for (int workers : {1, 2, 4, 8}) {
      std::string suffix =
          "/workers:" + std::to_string(workers) + BatchTag(repeats);
      std::string cold = "BM_F8_ServiceCold" + suffix;
      benchmark::RegisterBenchmark(
          cold.c_str(),
          [repeats, workers](benchmark::State& state) {
            RunServiceCold(state, repeats, workers);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
      std::string steady = "BM_F8_ServiceSteady" + suffix;
      benchmark::RegisterBenchmark(
          steady.c_str(),
          [repeats, workers](benchmark::State& state) {
            RunServiceSteady(state, repeats, workers);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  for (int repeats : {2, 8, 32}) {
    std::string shared =
        "BM_F8_SharedCacheRepeats/repeats:" + std::to_string(repeats);
    benchmark::RegisterBenchmark(shared.c_str(),
                                 [repeats](benchmark::State& state) {
                                   RunSharedCacheRepeats(state, repeats);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F8", "concurrent batch-rewriting service: workers x "
                           "batch vs the serial baseline");
  aqv::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
