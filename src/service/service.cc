#include "service/service.h"

#include <cmath>
#include <utility>

namespace aqv {

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // ceil(q*n)-th order statistic, 1-based; clamp guards q outside (0, 1].
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

RewriteService::RewriteService(ServiceOptions options) : options_(options) {
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

Status RewriteService::SubmitTask(std::function<void()> task,
                                  uint64_t commands) {
  // Counted before the body: the body is the task's delivery, so anything
  // sequenced after it — like a later pipelined command rendering
  // lifetime_stats() — must already see this task's commands counted.
  bool accepted = queue_.Push([this, task = std::move(task), commands] {
    completed_.fetch_add(commands, std::memory_order_relaxed);
    task();
  });
  return accepted ? Status::OK()
                  : Status::Internal("RewriteService is shutting down");
}

ServiceStats RewriteService::lifetime_stats() const {
  ServiceStats s;
  s.requests = completed_.load(std::memory_order_relaxed);
  s.ok = s.requests;
  s.num_workers = num_workers();
  return s;
}

}  // namespace aqv
