// The traced run: the same session streams over one lock-step connection,
// every command then replayed in process around the public calls of each
// layer, which yields the per-layer breakdown.

#ifndef AQV_BENCH_E2E_TRACE_H_
#define AQV_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "wire.h"
#include "workloads.h"

namespace aqv_e2e {

struct TraceResult {
  MetricTable metrics;
  ResponseChecker checker;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
};

/// Alternates untraced and traced sessions of `pools` (interleaving the
/// connections' pools) for `seconds` on `conn`, or on a connection of
/// their own for sessions that ask for one. `warmups` are the sessions the
/// server ran during set-up. Writes the spans to `spans_path` when it is
/// not empty.
TraceResult RunTrace(const Pools& pools, const std::vector<SessionScript>& warmups,
                     Connection* conn, int port, double seconds,
                     const std::string& spans_path);

}  // namespace aqv_e2e

#endif  // AQV_BENCH_E2E_TRACE_H_
