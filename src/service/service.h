/// \file
/// The concurrent batch service: a fixed pool of worker threads fed by one
/// task queue, plus one sharded thread-safe ContainmentOracle
/// (containment/oracle.h) shared by everything that runs on the pool.
/// Per-request latency has a hard floor — the underlying problems are
/// NP-complete (LMSS95 Thms 3.1/3.3) — so the service buys throughput, not
/// latency: parallel execution across requests plus cross-request
/// containment memoization.
///
/// SubmitTask is the one public way to put work on the pool: an opaque
/// task that delivers its own result (the frontend server runs whole
/// parsed commands as tasks, pushing completions to its event loop). The
/// blocking batch helpers queue one task per item on the same pool:
/// RewriteBatch runs RewriteRequests through the unified engine layer
/// (rewriting/engine.h), AnswerBatch runs AnswerRequests through the
/// end-to-end answering pipeline (answering/answering.h); both wire the
/// shared oracle, count each item ok or failed by its status, block for
/// every result, and return aggregate ServiceStats. Responses are deterministic:
/// a request's payload never depends on worker count, shard count, or
/// scheduling, because the oracle is a pure cache (tests/test_service.cc
/// holds the service to that). The one non-deterministic surface is
/// per-request RewriteStats::oracle deltas, which under concurrency
/// include other workers' traffic — read aggregate oracle numbers from
/// ServiceStats instead.

#ifndef AQV_SERVICE_SERVICE_H_
#define AQV_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "answering/answering.h"
#include "containment/oracle.h"
#include "rewriting/engine.h"
#include "service/mpmc_queue.h"
#include "util/status.h"

namespace aqv {

/// Construction-time knobs of a RewriteService.
struct ServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  int num_workers = 0;
  /// Shards of the service's shared ContainmentOracle (rounded up to a
  /// power of two; more shards = less lock contention, same outputs).
  size_t oracle_shards = 8;
  /// Total entry budget of the shared oracle, split across shards.
  size_t oracle_max_entries = size_t{1} << 20;
};

/// One unit of RewriteBatch work: which engine, applied to which request.
/// The request's `views` pointer (and the Catalog behind it) must stay
/// alive until the batch returns.
struct ServiceRequest {
  /// Engine registry name ("lmss", "bucket", "minicon", "ucq").
  std::string engine;
  RewriteRequest request;
};

/// Outcome of one ServiceRequest.
struct ServiceResponse {
  /// Echo of ServiceRequest::engine.
  std::string engine;
  /// Engine-level failure (unknown engine, invalid request, budget
  /// overrun). `response` is meaningful only when this is OK.
  Status status;
  RewriteResponse response;
  /// Wall time of the engine call itself (queue wait excluded).
  double latency_ms = 0.0;
};

/// Aggregate numbers over one batch (RewriteBatch) or over the service's
/// lifetime (lifetime_stats).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Batch: submit→last-response wall time. Lifetime: since construction.
  double wall_ms = 0.0;
  /// requests / wall seconds.
  double throughput_rps = 0.0;
  /// Percentiles of per-request engine latency (batch only; zero for
  /// lifetime stats, which do not retain per-request samples).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  /// Shared-oracle counters: the batch's delta, or lifetime totals.
  OracleStats oracle;
  int num_workers = 0;
  size_t oracle_shards = 0;
};

/// A batch's responses (in submission order) plus its aggregate stats.
struct BatchResult {
  std::vector<ServiceResponse> responses;
  ServiceStats stats;
};

/// Outcome of one AnswerBatch item (see answering/answering.h for the
/// request/response semantics).
struct AnswerServiceResponse {
  /// Pipeline-level failure (unknown engine/route, missing inputs, budget
  /// overrun). `response` is meaningful only when this is OK.
  Status status;
  AnswerResponse response;
  /// Wall time of the answering call itself (queue wait excluded).
  double latency_ms = 0.0;
};

/// An answering batch's responses (in submission order) plus stats.
struct AnswerBatchResult {
  std::vector<AnswerServiceResponse> responses;
  ServiceStats stats;
};

/// True nearest-rank percentile of an ascending-sorted sample: the
/// ceil(q*n)-th order statistic for q in (0, 1] (0 for an empty sample).
/// Unlike the rounded interpolation it replaces, p50 of a 2-sample batch
/// is the *smaller* sample — the textbook nearest-rank definition.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// \brief Fixed-pool concurrent rewriting service over the engine registry.
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

  /// Executes `batch` across the pool with the shared oracle; blocks until
  /// every response is in. responses[i] corresponds to batch[i].
  /// Engine-level failures are per-response (`responses[i].status`); the
  /// call itself only fails if the service is shutting down.
  [[nodiscard]] Result<BatchResult> RewriteBatch(const std::vector<ServiceRequest>& batch);

  /// Answering twin of RewriteBatch: runs every AnswerRequest through the
  /// pipeline on the shared pool and oracle.
  [[nodiscard]] Result<AnswerBatchResult> AnswerBatch(const std::vector<AnswerRequest>& batch);

  /// Runs `task` on a pool worker. There is no collection API — the task
  /// delivers its own result. A task counts in lifetime_stats as one ok
  /// request, and the count lands before its body runs, so anything the
  /// body sequences after itself already sees it. The only failure is
  /// submission during shutdown; accepted tasks always run.
  [[nodiscard]] Status SubmitTask(std::function<void()> task);

  /// Totals since construction (percentiles zero; see ServiceStats).
  ServiceStats lifetime_stats() const;

  /// The shared sharded oracle the batch helpers wire into every request.
  ContainmentOracle& oracle() { return oracle_; }
  const ServiceOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// Shared body of the batch helpers: one task per item, each running
  /// `run` on its own copy of the item and filling responses[i], then a
  /// latch until every accepted task finished. Defined in service.cc.
  template <typename Out, typename Request, typename Run>
  [[nodiscard]] Result<Out> RunBatch(const std::vector<Request>& batch, Run run);

  /// Bumps the lifetime completion counters; always called before the
  /// counted work's result is delivered.
  void Count(bool ok) {
    if (ok) {
      completed_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      completed_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ServiceOptions options_;
  ContainmentOracle oracle_;
  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> completed_ok_{0};
  std::atomic<uint64_t> completed_failed_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_SERVICE_H_
