#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "containment/oracle.h"
#include "service/mpmc_queue.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// The concurrent service layer: the SubmitTask contract (exactly-once,
/// drain on destruction, count before delivery), engine runs on the pool
/// that match direct calls and do not depend on the worker count, exact
/// sharded oracle stats under a single thread, and a mixed-scenario
/// stress run on one caller-owned oracle (the TSan target in CI).

/// The scenario × engine grid: `repeats` fresh instances of every packaged
/// scenario (seeds `seed + rep`), each rewritten by every engine. The
/// requests point into `scenarios`, which the grid owns.
struct Grid {
  std::vector<std::unique_ptr<Scenario>> scenarios;
  std::vector<std::string> engines;
  std::vector<RewriteRequest> requests;
  /// "scenario/engine/rep:N", for assertion messages.
  std::vector<std::string> labels;

  size_t size() const { return requests.size(); }
};

Grid MixedGrid(int repeats = 1, uint64_t seed = 7) {
  Grid grid;
  for (const std::string& name : ScenarioNames()) {
    for (int rep = 0; rep < repeats; ++rep) {
      auto scenario = MakeScenarioByName(
          name, seed + static_cast<uint64_t>(rep), /*db_size=*/30);
      EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
      grid.scenarios.push_back(
          std::make_unique<Scenario>(std::move(scenario).value()));
      const Scenario& owned = *grid.scenarios.back();
      for (const std::string& engine : EngineNames()) {
        RewriteRequest request;
        request.query.disjuncts.push_back(owned.query);
        request.views = &owned.views;
        grid.engines.push_back(engine);
        grid.requests.push_back(std::move(request));
        grid.labels.push_back(name + "/" + engine + "/rep:" +
                              std::to_string(rep));
      }
    }
  }
  return grid;
}

/// Submits `run(i)` for every i in [0, n) as its own pool task and
/// collects the results in order through futures.
template <typename Run>
auto RunOnPool(RewriteService& service, size_t n, const Run& run) {
  using R = decltype(run(size_t{0}));
  std::vector<std::future<R>> futures;
  for (size_t i = 0; i < n; ++i) {
    auto task = std::make_shared<std::packaged_task<R()>>(
        [&run, i] { return run(i); });
    futures.push_back(task->get_future());
    Status submitted = service.SubmitTask([task] { (*task)(); });
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
  }
  std::vector<R> results;
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// Runs requests[i] through grid.engines[i], one pool task each.
std::vector<Result<RewriteResponse>> RunGrid(
    RewriteService& service, const Grid& grid,
    const std::vector<RewriteRequest>& requests) {
  return RunOnPool(service, requests.size(), [&grid, &requests](size_t i) {
    return RunEngine(grid.engines[i], requests[i]);
  });
}

/// Everything about an engine run that must be scheduling-independent —
/// the payload, minus per-request oracle deltas (which under a shared
/// concurrent oracle include other workers' traffic by design).
std::string Payload(const Result<RewriteResponse>& r) {
  if (!r.ok()) return "err|" + r.status().ToString();
  const RewriteResponse& resp = r.value();
  std::string s = resp.engine + "|";
  s += resp.equivalent_exists ? "eq|" : "noeq|";
  s += resp.rewritings.ToString() + "|";
  s += resp.minimized.ToString();
  s += "|cand:" + std::to_string(resp.stats.num_candidates);
  s += "|comb:" + std::to_string(resp.stats.combinations);
  s += "|checks:" + std::to_string(resp.stats.checks);
  return s;
}

TEST(MpmcQueueTest, FifoAndDrainAfterClose) {
  MpmcQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: rejected
  int v = 0;
  ASSERT_TRUE(q.Pop(&v));  // queued items still drain
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersLoseNothing) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 4;
  std::atomic<int> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      int v;
      while (q.Pop(&v)) {
        sum.fetch_add(v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.Push(i);
    });
  }
  for (int t = 3; t < 3 + kProducers; ++t) threads[t].join();
  q.Close();
  for (int t = 0; t < 3; ++t) threads[t].join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum.load(), kProducers * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(RewriteServiceTest, OneWorkerMatchesDirectEngineCalls) {
  // The acceptance bar: engine runs on a 1-worker pool emit responses
  // identical (payload-wise) to direct RewritingEngine calls — the service
  // changes performance, never results.
  Grid grid = MixedGrid();
  ServiceOptions options;
  options.num_workers = 1;
  RewriteService service(options);
  auto results = RunGrid(service, grid, grid.requests);
  ASSERT_EQ(results.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    auto direct = RunEngine(grid.engines[i], grid.requests[i]);
    ASSERT_TRUE(direct.ok()) << grid.labels[i];
    EXPECT_EQ(Payload(results[i]), Payload(direct)) << grid.labels[i];
  }
}

TEST(RewriteServiceTest, DeterministicAcrossWorkerCounts) {
  Grid grid = MixedGrid(/*repeats=*/2);
  ServiceOptions one;
  one.num_workers = 1;
  ServiceOptions many;
  many.num_workers = 4;
  RewriteService serial(one);
  RewriteService parallel(many);
  auto r1 = RunGrid(serial, grid, grid.requests);
  auto rn = RunGrid(parallel, grid, grid.requests);
  ASSERT_EQ(r1.size(), rn.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(Payload(r1[i]), Payload(rn[i])) << grid.labels[i];
  }
  EXPECT_EQ(parallel.lifetime_stats().num_workers, 4);
}

TEST(RewriteServiceTest, ShardedOracleStatsExactUnderSingleThread) {
  // Regression for the counters' conversion to relaxed atomics: driven
  // from one thread, a sharded oracle's aggregated totals must be exact —
  // equal to the 1-shard oracle's on the same call sequence, internally
  // consistent, and reflected one-for-one in size().
  Grid grid = MixedGrid();
  ContainmentOracle sharded(/*max_entries=*/size_t{1} << 20,
                            /*num_shards=*/4);
  ContainmentOracle flat(/*max_entries=*/size_t{1} << 20, /*num_shards=*/1);
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(flat.num_shards(), 1u);
  for (size_t i = 0; i < grid.size(); ++i) {
    RewriteRequest with_sharded = grid.requests[i];
    with_sharded.options.oracle = &sharded;
    RewriteRequest with_flat = grid.requests[i];
    with_flat.options.oracle = &flat;
    ASSERT_TRUE(RunEngine(grid.engines[i], with_sharded).ok());
    ASSERT_TRUE(RunEngine(grid.engines[i], with_flat).ok());
  }
  OracleStats s = sharded.stats();
  OracleStats f = flat.stats();
  EXPECT_GT(s.lookups(), 0u);
  EXPECT_EQ(s.hits, f.hits);
  EXPECT_EQ(s.misses, f.misses);
  EXPECT_EQ(s.inserts, f.inserts);
  EXPECT_EQ(s.capacity_rejects, f.capacity_rejects);
  EXPECT_EQ(s.confirm_failures, f.confirm_failures);
  EXPECT_EQ(s.lookups(), s.hits + s.misses);
  EXPECT_EQ(sharded.size(), s.inserts);  // no capacity rejects at 2^20
  EXPECT_EQ(s.capacity_rejects, 0u);
  sharded.ResetStats();
  EXPECT_EQ(sharded.stats().lookups(), 0u);
  EXPECT_EQ(sharded.size(), s.inserts);  // entries survive a stats reset
  sharded.Clear();
  EXPECT_EQ(sharded.size(), 0u);
}

TEST(PlanCacheTest, EntryCapRejectsInsertsPastIt) {
  RewritePlanCache cache;
  const size_t cap = RewritePlanCache::kMaxEntries;
  ASSERT_EQ(cap, size_t{1} << 16);
  for (size_t i = 0; i < cap; ++i) {
    cache.Insert("key" + std::to_string(i), {});
  }
  EXPECT_EQ(cache.size(), cap);
  EXPECT_EQ(cache.stats().inserts, cap);
  EXPECT_EQ(cache.stats().capacity_rejects, 0u);

  cache.Insert("one too many", {"payload", {}});
  EXPECT_EQ(cache.stats().capacity_rejects, 1u);
  EXPECT_EQ(cache.stats().inserts, cap);
  EXPECT_EQ(cache.size(), cap);
  EXPECT_FALSE(cache.Lookup("one too many").has_value());

  // A key already cached stays a no-op at the cap, not a reject.
  cache.Insert("key0", {"other", {}});
  EXPECT_EQ(cache.stats().capacity_rejects, 1u);
  EXPECT_TRUE(cache.Lookup("key0").has_value());
  EXPECT_EQ(cache.Lookup("key0")->rendered, "");
}

TEST(ServiceStatsTest, NearestRankPercentileSmallSamples) {
  // True nearest-rank: the ceil(q*n)-th order statistic. Regression: the
  // old rounding (q*(n-1)+0.5) reported the *larger* of 2 samples as p50.
  EXPECT_DOUBLE_EQ(NearestRankPercentile({}, 0.50), 0.0);

  EXPECT_DOUBLE_EQ(NearestRankPercentile({5.0}, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({5.0}, 0.95), 5.0);

  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 9.0}, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 9.0}, 0.95), 9.0);

  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 5.0, 9.0}, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 5.0, 9.0}, 0.95), 9.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 5.0, 9.0}, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({1.0, 5.0, 9.0}, 1.00), 9.0);
}

TEST(RewriteServiceTest, StressMixedScenariosManyWorkers) {
  // The TSan target: 8 workers hammering one caller-owned 4-shard oracle
  // over three rounds of the full mixed grid, one pool task per request.
  Grid grid = MixedGrid(/*repeats=*/3, /*seed=*/21);
  ContainmentOracle oracle(/*max_entries=*/size_t{1} << 20, /*num_shards=*/4);
  std::vector<RewriteRequest> requests = grid.requests;
  for (RewriteRequest& request : requests) request.options.oracle = &oracle;
  ServiceOptions options;
  options.num_workers = 8;
  RewriteService service(options);
  for (int round = 0; round < 3; ++round) {
    auto results = RunGrid(service, grid, requests);
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].ok())
          << "round " << round << " " << grid.labels[i] << ": "
          << results[i].status().ToString();
    }
  }
  ServiceStats lifetime = service.lifetime_stats();
  EXPECT_EQ(lifetime.requests, 3 * requests.size());
  // Rounds 2 and 3 replay round 1's containment work from the cache.
  EXPECT_GT(oracle.stats().hits, oracle.stats().misses);
}

TEST(RewriteServiceTest, DefaultWorkerCountIsAtLeastOne) {
  RewriteService service;  // num_workers = 0 → hardware_concurrency
  EXPECT_GE(service.num_workers(), 1);
}

TEST(RewriteServiceTest, SubmitTaskRunsEveryTaskExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  constexpr int kTotal = kThreads * kPerThread;
  std::vector<std::atomic<int>> runs(kTotal);
  std::atomic<int> finished{0};
  ServiceOptions options;
  options.num_workers = 3;
  RewriteService service(options);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int id = t * kPerThread + i;
        Status submitted = service.SubmitTask([&runs, &finished, id] {
          runs[id].fetch_add(1);
          finished.fetch_add(1);
        });
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
      }
    });
  }
  for (std::thread& p : producers) p.join();
  while (finished.load() < kTotal) std::this_thread::yield();
  for (int id = 0; id < kTotal; ++id) {
    EXPECT_EQ(runs[id].load(), 1) << "task " << id;
  }
  ServiceStats lifetime = service.lifetime_stats();
  EXPECT_EQ(lifetime.requests, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(lifetime.ok, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(lifetime.failed, 0u);
}

TEST(RewriteServiceTest, DestructorRunsQueuedTasksBeforeJoining) {
  // One worker is held by a gate task until the destructor has closed the
  // queue (its own probe submissions start failing). Everything queued
  // behind the gate is still waiting at that point, and must all run.
  constexpr int kQueued = 100;
  std::atomic<int> ran{0};
  bool saw_shutdown = false;
  {
    ServiceOptions options;
    options.num_workers = 1;
    RewriteService service(options);
    ASSERT_TRUE(service.SubmitTask([&service, &saw_shutdown] {
      while (service.SubmitTask([] {}).ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      saw_shutdown = true;
    }).ok());
    for (int i = 0; i < kQueued; ++i) {
      ASSERT_TRUE(service.SubmitTask([&ran] { ran.fetch_add(1); }).ok());
    }
  }
  EXPECT_TRUE(saw_shutdown);
  EXPECT_EQ(ran.load(), kQueued);
}

TEST(RewriteServiceTest, TaskBodySeesItselfCounted) {
  // The count lands before the body runs: a task that reads the lifetime
  // stats (as the server's pipelined STATS does) already includes itself.
  ServiceOptions options;
  options.num_workers = 1;
  RewriteService service(options);
  for (uint64_t expected = 1; expected <= 3; ++expected) {
    std::promise<uint64_t> seen;
    std::future<uint64_t> requests = seen.get_future();
    ASSERT_TRUE(service.SubmitTask([&service, &seen] {
      seen.set_value(service.lifetime_stats().requests);
    }).ok());
    EXPECT_EQ(requests.get(), expected);
  }
  // A task carrying several commands (the server's pipelined run of
  // definitions) counts each of them, all before its body runs.
  uint64_t before = service.lifetime_stats().requests;
  std::promise<uint64_t> seen;
  std::future<uint64_t> requests = seen.get_future();
  ASSERT_TRUE(service.SubmitTask([&service, &seen] {
    seen.set_value(service.lifetime_stats().requests);
  }, 3).ok());
  EXPECT_EQ(requests.get(), before + 3);
  EXPECT_EQ(service.lifetime_stats().ok, before + 3);
}

}  // namespace
}  // namespace aqv
