// The four seeded workloads. Each client connection sends a list of
// sessions generated up front from the run seed; the server only ever sees
// the generated command text.

#ifndef AQV_BENCH_E2E_WORKLOADS_H_
#define AQV_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"

namespace aqv_e2e {

/// Client connections the timed phase drives (closed loop, one thread
/// each).
inline constexpr int kConnections = 2;

/// Fixed per-workload parameters.
struct WorkloadSpec {
  std::string name;
  /// Sessions one connection completes per second on the reference
  /// machine (README.md). A run of S seconds sends ceil(S * rate) sessions
  /// on each connection: a fixed amount of work per seed, so that runs
  /// stay comparable (memory too) however fast the commit under test is.
  double sessions_per_s = 0;
};

/// The spec of `name`, or kInvalidArgument for an unknown workload.
[[nodiscard]] aqv::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Session `index` of connection `conn` under run seed `seed`. Databases
/// that churn_durable saves live under `work_dir`, a path relative to the
/// server's working directory so that the command bytes do not depend on
/// where the checkout lives.
[[nodiscard]] aqv::Result<SessionScript> MakeSession(const WorkloadSpec& spec,
                                                     uint64_t seed, int conn,
                                                     int index,
                                                     const std::string& work_dir);

/// The index of each connection's warm-up session, which is generated with
/// seed 0 so that every run warms up on the same problems.
inline constexpr int kWarmupIndex = 900'000;

/// pools[c] = the sessions connection c sends, in order.
using Pools = std::vector<std::vector<SessionScript>>;

/// FNV-1a over every command byte of `pools`, as 16 hex digits.
std::string InputDigest(const Pools& pools);

}  // namespace aqv_e2e

#endif  // AQV_BENCH_E2E_WORKLOADS_H_
