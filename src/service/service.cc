#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

namespace aqv {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Status ShuttingDown() {
  return Status::Internal("RewriteService is shutting down");
}

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // ceil(q*n)-th order statistic, 1-based; clamp guards q outside (0, 1].
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

RewriteService::RewriteService(ServiceOptions options)
    : options_(options),
      oracle_(options.oracle_max_entries, options.oracle_shards),
      start_(std::chrono::steady_clock::now()) {
  int workers = options_.num_workers;
  if (workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      std::function<void()> task;
      while (queue_.Pop(&task)) task();
    });
  }
}

RewriteService::~RewriteService() {
  queue_.Close();  // rejects new tasks; workers drain queued ones, then exit
  for (std::thread& t : workers_) t.join();
}

Status RewriteService::SubmitTask(std::function<void()> task) {
  // Counted before the body: the body is the task's delivery, so anything
  // sequenced after it — like a later pipelined command rendering
  // lifetime_stats() — must already see this task counted.
  bool accepted = queue_.Push([this, task = std::move(task)] {
    Count(true);
    task();
  });
  return accepted ? Status::OK() : ShuttingDown();
}

template <typename Out, typename Request, typename Run>
Result<Out> RewriteService::RunBatch(const std::vector<Request>& batch,
                                     Run run) {
  OracleStats oracle_before = oracle_.stats();
  auto t0 = std::chrono::steady_clock::now();

  Out out;
  out.responses.resize(batch.size());
  std::mutex mu;
  std::condition_variable all_done;
  size_t accepted = 0;
  size_t finished = 0;
  bool shutting_down = false;
  for (size_t i = 0; i < batch.size(); ++i) {
    shutting_down = !queue_.Push([&, i] {
      auto& resp = out.responses[i];
      Request request = batch[i];  // the worker's own copy to wire up
      auto start = std::chrono::steady_clock::now();
      auto r = run(request);
      resp.latency_ms = MsBetween(start, std::chrono::steady_clock::now());
      if (r.ok()) {
        resp.response = std::move(r).value();
      } else {
        resp.status = r.status();
      }
      Count(resp.status.ok());
      // Notify under the lock: the waiter may return (destroying `mu` and
      // `all_done`) as soon as it can observe the final count.
      std::lock_guard<std::mutex> lock(mu);
      ++finished;
      all_done.notify_one();
    });
    if (shutting_down) break;
    ++accepted;
  }
  // Even when shutdown cut the batch short, the accepted tasks point into
  // this frame, so wait for them before returning.
  {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return finished == accepted; });
  }
  if (shutting_down) return ShuttingDown();

  ServiceStats& stats = out.stats;
  std::vector<double> latencies;
  latencies.reserve(batch.size());
  for (const auto& resp : out.responses) {
    latencies.push_back(resp.latency_ms);
    if (resp.status.ok()) {
      ++stats.ok;
    } else {
      ++stats.failed;
    }
  }
  stats.requests = batch.size();
  stats.wall_ms = MsBetween(t0, std::chrono::steady_clock::now());
  if (stats.wall_ms > 0.0) {
    stats.throughput_rps =
        static_cast<double>(batch.size()) / (stats.wall_ms / 1000.0);
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = NearestRankPercentile(latencies, 0.50);
  stats.p95_ms = NearestRankPercentile(latencies, 0.95);
  stats.max_ms = latencies.empty() ? 0.0 : latencies.back();
  stats.oracle = oracle_.stats() - oracle_before;
  stats.num_workers = num_workers();
  stats.oracle_shards = oracle_.num_shards();
  return out;
}

Result<BatchResult> RewriteService::RewriteBatch(
    const std::vector<ServiceRequest>& batch) {
  AQV_ASSIGN_OR_RETURN(
      BatchResult out,
      RunBatch<BatchResult>(batch, [this](ServiceRequest& job) {
        job.request.options.oracle = &oracle_;
        return RunEngine(job.engine, job.request);
      }));
  for (size_t i = 0; i < batch.size(); ++i) {
    out.responses[i].engine = batch[i].engine;
  }
  return out;
}

Result<AnswerBatchResult> RewriteService::AnswerBatch(
    const std::vector<AnswerRequest>& batch) {
  return RunBatch<AnswerBatchResult>(batch, [this](AnswerRequest& request) {
    // One wire point suffices: AnswerQuery copies request.options into the
    // planner's engine options itself.
    request.options.oracle = &oracle_;
    return AnswerQuery(request);
  });
}

ServiceStats RewriteService::lifetime_stats() const {
  ServiceStats s;
  s.ok = completed_ok_.load(std::memory_order_relaxed);
  s.failed = completed_failed_.load(std::memory_order_relaxed);
  s.requests = s.ok + s.failed;
  s.wall_ms = MsBetween(start_, std::chrono::steady_clock::now());
  if (s.wall_ms > 0.0) {
    s.throughput_rps = static_cast<double>(s.requests) / (s.wall_ms / 1000.0);
  }
  s.oracle = oracle_.stats();
  s.num_workers = static_cast<int>(workers_.size());
  s.oracle_shards = oracle_.num_shards();
  return s;
}

}  // namespace aqv
