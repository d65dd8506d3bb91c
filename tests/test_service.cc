#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "containment/oracle.h"
#include "service/batch.h"
#include "service/mpmc_queue.h"
#include "service/service.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// The concurrent service layer: determinism across worker counts, a
/// caller-owned oracle left in place by the batch helpers, exact sharded
/// oracle stats under a single thread, the SubmitTask contract
/// (exactly-once, drain on destruction, count before delivery), and a
/// mixed-scenario stress run (the TSan target in CI).

/// Everything about a response that must be scheduling-independent — the
/// payload, minus timing and minus per-request oracle deltas (which under
/// a shared concurrent oracle include other workers' traffic by design).
std::string Payload(const ServiceResponse& r) {
  std::string s = r.engine + "|" + (r.status.ok() ? "ok" : "err") + "|";
  if (!r.status.ok()) return s + r.status.ToString();
  const RewriteResponse& resp = r.response;
  s += resp.engine + "|";
  s += resp.equivalent_exists ? "eq|" : "noeq|";
  s += resp.rewritings.ToString() + "|";
  s += resp.witness.has_value() ? resp.witness->ToString() : "<none>";
  s += "|" + resp.minimized.ToString();
  s += "|cand:" + std::to_string(resp.stats.num_candidates);
  s += "|comb:" + std::to_string(resp.stats.combinations);
  s += "|checks:" + std::to_string(resp.stats.checks);
  return s;
}

ScenarioRequestBatch MixedBatch(int repeats = 1, uint64_t seed = 7,
                                int db_size = 30) {
  auto batch = MakeBatchFromScenarios(ScenarioNames(), EngineNames(), repeats,
                                      seed, db_size);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return std::move(batch).value();
}

BatchResult RunBatch(const ScenarioRequestBatch& batch,
                     ServiceOptions options) {
  RewriteService service(options);
  auto result = service.RewriteBatch(ToServiceRequests(batch));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
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

TEST(MakeBatchFromScenariosTest, ShapesAndValidation) {
  ScenarioRequestBatch batch = MixedBatch(/*repeats=*/2);
  size_t expected =
      ScenarioNames().size() * EngineNames().size() * 2;
  EXPECT_EQ(batch.size(), expected);
  EXPECT_EQ(batch.engines.size(), expected);
  EXPECT_EQ(batch.labels.size(), expected);
  EXPECT_EQ(batch.scenarios.size(), ScenarioNames().size() * 2);
  for (const RewriteRequest& r : batch.requests) {
    EXPECT_NE(r.views, nullptr);
    EXPECT_EQ(r.query.size(), 1u);
  }

  EXPECT_FALSE(MakeBatchFromScenarios({}, EngineNames(), 1, 1, 10).ok());
  EXPECT_FALSE(MakeBatchFromScenarios(ScenarioNames(), {}, 1, 1, 10).ok());
  EXPECT_FALSE(
      MakeBatchFromScenarios(ScenarioNames(), EngineNames(), 0, 1, 10).ok());
  auto bad_engine =
      MakeBatchFromScenarios(ScenarioNames(), {"gqr"}, 1, 1, 10);
  ASSERT_FALSE(bad_engine.ok());
  EXPECT_EQ(bad_engine.status().code(), StatusCode::kNotFound);
  auto bad_scenario =
      MakeBatchFromScenarios({"atlantis"}, EngineNames(), 1, 1, 10);
  ASSERT_FALSE(bad_scenario.ok());
  EXPECT_EQ(bad_scenario.status().code(), StatusCode::kNotFound);
}

TEST(RewriteServiceTest, OneWorkerMatchesDirectEngineCalls) {
  // The acceptance bar: a 1-worker service emits responses bit-identical
  // (payload-wise) to direct RewritingEngine calls — the service changes
  // performance, never results.
  ScenarioRequestBatch batch = MixedBatch();
  ServiceOptions options;
  options.num_workers = 1;
  BatchResult result = RunBatch(batch, options);
  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto direct = RunEngine(batch.engines[i], batch.requests[i]);
    ASSERT_TRUE(direct.ok()) << batch.labels[i];
    ServiceResponse expected;
    expected.engine = batch.engines[i];
    expected.response = std::move(direct).value();
    EXPECT_EQ(Payload(result.responses[i]), Payload(expected))
        << batch.labels[i];
  }
}

TEST(RewriteServiceTest, DeterministicAcrossWorkerCounts) {
  ScenarioRequestBatch batch = MixedBatch(/*repeats=*/2);
  ServiceOptions one;
  one.num_workers = 1;
  ServiceOptions many;
  many.num_workers = 4;
  BatchResult r1 = RunBatch(batch, one);
  BatchResult rn = RunBatch(batch, many);
  ASSERT_EQ(r1.responses.size(), rn.responses.size());
  for (size_t i = 0; i < r1.responses.size(); ++i) {
    EXPECT_EQ(Payload(r1.responses[i]), Payload(rn.responses[i]))
        << batch.labels[i];
  }
  EXPECT_EQ(rn.stats.num_workers, 4);
}

TEST(RewriteServiceTest, BatchKeepsTheCallersOracle) {
  // The service owns no oracle: a request that carries one runs against
  // it, so every lookup of the batch lands on the caller's oracle, and the
  // payloads still match a batch that decides containment directly.
  ScenarioRequestBatch batch = MixedBatch();
  std::vector<ServiceRequest> requests = ToServiceRequests(batch);
  ContainmentOracle oracle;
  std::vector<ServiceRequest> memoized = requests;
  for (ServiceRequest& job : memoized) job.request.options.oracle = &oracle;
  ServiceOptions options;
  options.num_workers = 1;
  RewriteService service(options);
  auto with_oracle = service.RewriteBatch(memoized);
  auto direct = service.RewriteBatch(requests);
  ASSERT_TRUE(with_oracle.ok() && direct.ok());
  OracleStats s = oracle.stats();
  EXPECT_GT(s.lookups(), 0u);
  uint64_t reported = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse& memo = with_oracle.value().responses[i];
    EXPECT_EQ(Payload(memo), Payload(direct.value().responses[i]))
        << batch.labels[i];
    reported += memo.response.stats.oracle.lookups();
    EXPECT_EQ(direct.value().responses[i].response.stats.oracle.lookups(), 0u)
        << batch.labels[i];
  }
  // One worker: the per-response deltas partition the oracle's lookups.
  EXPECT_EQ(reported, s.lookups());
}

TEST(RewriteServiceTest, ShardedOracleStatsExactUnderSingleThread) {
  // Regression for the counters' conversion to relaxed atomics: driven
  // from one thread, a sharded oracle's aggregated totals must be exact —
  // equal to the 1-shard oracle's on the same call sequence, internally
  // consistent, and reflected one-for-one in size().
  ScenarioRequestBatch batch = MixedBatch();
  ContainmentOracle sharded(/*max_entries=*/size_t{1} << 20,
                            /*num_shards=*/4);
  ContainmentOracle flat(/*max_entries=*/size_t{1} << 20, /*num_shards=*/1);
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(flat.num_shards(), 1u);
  for (size_t i = 0; i < batch.size(); ++i) {
    RewriteRequest with_sharded = batch.requests[i];
    with_sharded.options.oracle = &sharded;
    RewriteRequest with_flat = batch.requests[i];
    with_flat.options.oracle = &flat;
    ASSERT_TRUE(RunEngine(batch.engines[i], with_sharded).ok());
    ASSERT_TRUE(RunEngine(batch.engines[i], with_flat).ok());
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

TEST(RewriteServiceTest, PerResponseFailuresDoNotFailTheBatch) {
  // A CQ engine handed a 2-disjunct union fails that request only.
  ScenarioRequestBatch batch = MixedBatch();
  std::vector<ServiceRequest> requests = ToServiceRequests(batch);
  ServiceRequest broken = requests[0];
  broken.engine = "lmss";
  broken.request.query.disjuncts.push_back(
      broken.request.query.disjuncts[0]);
  requests.push_back(std::move(broken));

  ServiceOptions options;
  options.num_workers = 2;
  RewriteService service(options);
  auto result = service.RewriteBatch(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.requests, requests.size());
  EXPECT_EQ(result.value().stats.failed, 1u);
  EXPECT_EQ(result.value().stats.ok, requests.size() - 1);
  const ServiceResponse& last = result.value().responses.back();
  ASSERT_FALSE(last.status.ok());
  EXPECT_EQ(last.status.code(), StatusCode::kInvalidArgument);
  // The lifetime counters agree with the batch, failure included.
  ServiceStats lifetime = service.lifetime_stats();
  EXPECT_EQ(lifetime.failed, 1u);
  EXPECT_EQ(lifetime.ok, requests.size() - 1);
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

TEST(RewriteServiceTest, BatchStatsAreConsistent) {
  ScenarioRequestBatch batch = MixedBatch(/*repeats=*/2);
  ServiceOptions options;
  options.num_workers = 2;
  BatchResult result = RunBatch(batch, options);
  const ServiceStats& s = result.stats;
  EXPECT_EQ(s.requests, batch.size());
  EXPECT_EQ(s.ok + s.failed, s.requests);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.wall_ms, 0.0);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.max_ms);
  EXPECT_EQ(s.num_workers, 2);
}

TEST(RewriteServiceTest, StressMixedScenariosManyWorkers) {
  // The TSan target: 8 workers hammering one caller-owned 4-shard oracle
  // over three rounds of the full mixed grid.
  ScenarioRequestBatch batch = MixedBatch(/*repeats=*/3, /*seed=*/21);
  std::vector<ServiceRequest> requests = ToServiceRequests(batch);
  ContainmentOracle oracle(/*max_entries=*/size_t{1} << 20, /*num_shards=*/4);
  for (ServiceRequest& job : requests) job.request.options.oracle = &oracle;
  ServiceOptions options;
  options.num_workers = 8;
  RewriteService service(options);
  for (int round = 0; round < 3; ++round) {
    auto result = service.RewriteBatch(requests);
    ASSERT_TRUE(result.ok()) << "round " << round;
    EXPECT_EQ(result.value().stats.failed, 0u) << "round " << round;
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
