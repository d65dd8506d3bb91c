/// \file
/// The concurrent service: a fixed pool of worker threads fed by one task
/// queue. Per-request latency has a hard floor — the underlying problems
/// are NP-complete (LMSS95 Thms 3.1/3.3) — so the service buys
/// throughput, not latency, and it buys it from parallel execution across
/// requests alone: it holds no containment state, so every containment
/// check a task makes runs the homomorphism or linearization test
/// directly unless the task's own request carries an oracle
/// (containment/oracle.h).
///
/// SubmitTask is the one way to put work on the pool: an opaque task that
/// delivers its own result (the frontend server runs each parsed command,
/// or each pipelined run of definitions, as one task, pushing completions
/// to its event loop).

#ifndef AQV_SERVICE_SERVICE_H_
#define AQV_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "service/mpmc_queue.h"
#include "util/status.h"

namespace aqv {

/// Construction-time knobs of a RewriteService.
struct ServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  int num_workers = 0;
};

/// Totals over the service's lifetime (lifetime_stats).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  /// A task delivers its own outcome, so the pool counts every accepted
  /// command ok and this stays 0; `ok + failed == requests`.
  uint64_t failed = 0;
  int num_workers = 0;
};

/// True nearest-rank percentile of an ascending-sorted sample: the
/// ceil(q*n)-th order statistic for q in (0, 1] (0 for an empty sample).
/// Unlike the rounded interpolation it replaces, p50 of a 2-sample set
/// is the *smaller* sample — the textbook nearest-rank definition.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// \brief Fixed-pool concurrent service.
///
/// Thread safety: all public members may be called from any thread.
/// Shutdown: the destructor runs every already-queued task, then joins the
/// workers — accepted work is never abandoned.
class RewriteService {
 public:
  explicit RewriteService(ServiceOptions options = {});
  ~RewriteService();

  RewriteService(const RewriteService&) = delete;
  RewriteService& operator=(const RewriteService&) = delete;

  /// Runs `task` on a pool worker. There is no collection API — the task
  /// delivers its own result. A task counts in lifetime_stats as
  /// `commands` ok requests (one per command it carries, so the count
  /// does not depend on how commands are grouped into tasks), and the
  /// count lands before its body runs, so anything the body sequences
  /// after itself already sees it. The only failure is submission during
  /// shutdown; accepted tasks always run.
  [[nodiscard]] Status SubmitTask(std::function<void()> task,
                                  uint64_t commands = 1);

  /// Totals since construction.
  ServiceStats lifetime_stats() const;

  const ServiceOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  ServiceOptions options_;
  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> completed_{0};
};

}  // namespace aqv

#endif  // AQV_SERVICE_SERVICE_H_
