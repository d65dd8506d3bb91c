// The concurrent batch-rewriting service end to end: synthesize a mixed
// scenario × engine batch, run it on a worker pool, and read the
// aggregate ServiceStats.
//
//   $ ./example_service
//
// See docs/OPERATIONS.md for tuning the worker count and interpreting the
// stats this prints.

#include <cstdio>

#include "service/batch.h"
#include "service/service.h"
#include "workload/registry.h"

using namespace aqv;

int main() {
  // 1. A mixed batch: every packaged scenario × every rewriting engine ×
  //    two fresh instances — 24 independent rewriting problems.
  auto batch_result = MakeBatchFromScenarios(ScenarioNames(), EngineNames(),
                                             /*repeats=*/2, /*seed=*/7,
                                             /*db_size=*/50);
  if (!batch_result.ok()) {
    std::printf("batch synthesis failed: %s\n",
                batch_result.status().ToString().c_str());
    return 1;
  }
  ScenarioRequestBatch batch = std::move(batch_result).value();
  std::printf("batch: %zu requests (%zu scenarios x %zu engines x 2)\n\n",
              batch.size(), ScenarioNames().size(), EngineNames().size());

  // 2. A service: 4 workers, each deciding containment directly.
  ServiceOptions options;
  options.num_workers = 4;
  RewriteService service(options);

  auto result = service.RewriteBatch(ToServiceRequests(batch));
  if (!result.ok()) {
    std::printf("batch failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 3. Per-request outcomes: engine, rewriting count, latency.
  std::printf("%-28s %-8s %12s %10s\n", "request", "status", "rewritings",
              "ms");
  for (size_t i = 0; i < result.value().responses.size(); ++i) {
    const ServiceResponse& r = result.value().responses[i];
    std::printf("%-28s %-8s %12zu %10.3f\n", batch.labels[i].c_str(),
                r.status.ok() ? "ok" : "error",
                r.status.ok() ? r.response.rewritings.size() : size_t{0},
                r.latency_ms);
  }

  // 4. The aggregate: throughput and tail latency.
  const ServiceStats& s = result.value().stats;
  std::printf("\nServiceStats\n");
  std::printf("  requests     %llu (%llu ok, %llu failed)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.failed));
  std::printf("  wall         %.2f ms  (%.0f requests/s, %d workers)\n",
              s.wall_ms, s.throughput_rps, s.num_workers);
  std::printf("  latency      p50 %.3f ms   p95 %.3f ms   max %.3f ms\n",
              s.p50_ms, s.p95_ms, s.max_ms);
  return 0;
}
