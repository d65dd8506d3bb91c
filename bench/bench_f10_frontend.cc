/// F10 — the frontend session layer: what the surface costs on top of the
/// library it fronts. All variants drive the packaged LAV scenarios
/// (workload/registry.h) rendered into the command syntax by
/// frontend/replay.h, so the numbers reflect realistic session traffic:
///
///   BM_F10_ScriptReplay    parse + execute a whole scenario script
///                          (views, every base fact, the query) into a
///                          fresh Session — the command-ingest rate, in
///                          commands/s.
///   BM_F10_AnswerCommand   `answer route <r>` dispatched through a
///                          preloaded Session (command parse + pipeline).
///   BM_F10_AnswerApi       the same AnswerRequest called directly on
///                          AnswerQuery — the floor; the gap to
///                          AnswerCommand is the frontend dispatch tax.
///
/// The dispatch tax should stay in the noise: the frontend's job is
/// plumbing, and this bench is the regression guard on that claim.
///
/// PR 10 adds the epoll TCP server sweeps:
///
///   BM_F10_ServerManyConnections/N   N concurrent clients replaying one
///                          scenario script against a single server (N =
///                          1..128; the epoll loop multiplexes all of them
///                          onto one worker pool) — aggregate commands/s.
///   BM_F10_ServerRepeatedQueryHitRate/N  the shared-schema repeated-query
///                          regime: N successive connections re-issuing the
///                          same rewrite/answer probes through the shared
///                          plan cache, each byte-compared against the
///                          first, cold-cache connection. Counters surface
///                          the steady-state plan hit rate and the
///                          byte_identical attestation.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "answering/answering.h"
#include "bench_common.h"
#include "frontend/replay.h"
#include "frontend/server.h"
#include "frontend/session.h"
#include "testing/line_client.h"
#include "workload/registry.h"

namespace aqv {
namespace {

struct F10Setup {
  std::unique_ptr<Scenario> scenario;
  std::string script;
};

F10Setup MakeSetup(const std::string& scenario_name, int db_size) {
  F10Setup setup;
  setup.scenario = std::make_unique<Scenario>(bench::Unwrap(
      MakeScenarioByName(scenario_name, /*seed=*/21, db_size), "scenario"));
  setup.script =
      bench::Unwrap(ScriptFromScenario(*setup.scenario), "script");
  return setup;
}

void RunScriptReplay(benchmark::State& state,
                     const std::string& scenario_name) {
  F10Setup setup = MakeSetup(scenario_name, static_cast<int>(state.range(0)));
  size_t commands = 0;
  for (auto _ : state) {
    Session session;
    std::vector<CommandResult> results = session.ExecuteScript(setup.script);
    commands = session.commands_executed();
    for (const CommandResult& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status.ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(commands));
  state.counters["commands"] = static_cast<double>(commands);
}

void RunAnswerCommand(benchmark::State& state,
                      const std::string& scenario_name,
                      const std::string& route) {
  F10Setup setup = MakeSetup(scenario_name, static_cast<int>(state.range(0)));
  Session session;
  for (const CommandResult& r : session.ExecuteScript(setup.script)) {
    if (!r.ok()) {
      state.SkipWithError(r.status.ToString().c_str());
      return;
    }
  }
  std::string command = "answer route " + route;
  size_t answers = 0;
  for (auto _ : state) {
    CommandResult result = session.Execute(command);
    if (!result.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    answers = static_cast<size_t>(
        std::count(result.output.begin(), result.output.end(), '\n'));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["answers"] = static_cast<double>(answers);
}

void RunAnswerApi(benchmark::State& state, const std::string& scenario_name,
                  AnswerRoute route) {
  F10Setup setup = MakeSetup(scenario_name, static_cast<int>(state.range(0)));
  AnswerRequest request;
  request.query.disjuncts.push_back(setup.scenario->query);
  request.views = &setup.scenario->views;
  request.base = &setup.scenario->base;
  request.route = route;
  size_t answers = 0;
  for (auto _ : state) {
    AnswerResponse response;
    if (!bench::UnwrapOrSkip(AnswerQuery(request), state, &response)) return;
    answers = response.result.size();
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["answers"] = static_cast<double>(answers);
}

void F10Args(benchmark::internal::Benchmark* b) {
  b->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);
}

// --- epoll server sweeps (PR 10) ---------------------------------------

/// Sends `request` on a new connection and reads to EOF (the request
/// ends in `quit`, so the server closes when done).
std::string ReplayOverTcp(int port, const std::string& request) {
  int fd = ConnectLoopback(port);
  if (fd < 0) return {};
  SendAll(fd, request);
  std::string received = RecvUntilEof(fd);
  ::close(fd);
  return received;
}

/// One whole-session request: the scenario script plus rewrite/answer
/// probes and a closing `quit`.
std::string ProbedRequest(const std::string& scenario_name, int db_size) {
  F10Setup setup = MakeSetup(scenario_name, db_size);
  return setup.script +
         "rewrite with lmss\n"
         "rewrite with minicon\n"
         "answer route complete with lmss\n"
         "quit\n";
}

void RunServerManyConnections(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const std::string request = ProbedRequest("warehouse", /*db_size=*/50);
  const size_t commands_per_conn = static_cast<size_t>(
      std::count(request.begin(), request.end(), '\n'));
  ServerOptions options;
  options.max_connections = 256;
  FrontendServer server(options);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  for (auto _ : state) {
    std::vector<std::string> responses(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        responses[static_cast<size_t>(c)] =
            ReplayOverTcp(server.port(), request);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 1; c < clients; ++c) {
      if (responses[static_cast<size_t>(c)] != responses[0]) {
        state.SkipWithError("cross-connection response mismatch");
        return;
      }
    }
    if (responses[0].empty()) {
      state.SkipWithError("empty response");
      return;
    }
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() * clients *
                          static_cast<int64_t>(commands_per_conn));
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["commands_per_conn"] =
      static_cast<double>(commands_per_conn);
  state.counters["plan_hit_rate"] = server.plan_cache().stats().hit_rate();
  server.Stop();
}

void RunServerRepeatedQueryHitRate(benchmark::State& state) {
  const int repeats = static_cast<int>(state.range(0));
  const std::string request = ProbedRequest("warehouse", /*db_size=*/50);
  FrontendServer server;
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  // The first connection runs every engine against a cold plan cache; its
  // bytes are what every later, cache-hitting connection must reproduce.
  const std::string cold = ReplayOverTcp(server.port(), request);
  bool identical = !cold.empty();
  for (auto _ : state) {
    for (int r = 0; r < repeats; ++r) {
      // A fresh connection per repeat: the hits below are genuinely
      // cross-connection (each repeat's catalog is new).
      std::string cached = ReplayOverTcp(server.port(), request);
      identical = identical && cached == cold;
      benchmark::DoNotOptimize(cached);
    }
  }
  if (!identical) {
    state.SkipWithError("cached response diverged from the cold run");
    return;
  }
  state.SetItemsProcessed(state.iterations() * repeats);
  state.counters["repeats"] = static_cast<double>(repeats);
  state.counters["plan_hit_rate"] = server.plan_cache().stats().hit_rate();
  state.counters["byte_identical"] = 1.0;
  server.Stop();
}

void RegisterAll() {
  for (const std::string& scenario : ScenarioNames()) {
    std::string replay = "BM_F10_ScriptReplay/" + scenario;
    benchmark::RegisterBenchmark(
        replay.c_str(),
        [scenario](benchmark::State& state) {
          RunScriptReplay(state, scenario);
        })
        ->Apply(F10Args);
    for (const std::string& route : {std::string("direct"),
                                     std::string("complete"),
                                     std::string("cost")}) {
      std::string cmd = "BM_F10_AnswerCommand/" + scenario + "/" + route;
      benchmark::RegisterBenchmark(
          cmd.c_str(),
          [scenario, route](benchmark::State& state) {
            RunAnswerCommand(state, scenario, route);
          })
          ->Apply(F10Args);
    }
    std::string api = "BM_F10_AnswerApi/" + scenario + "/direct";
    benchmark::RegisterBenchmark(
        api.c_str(),
        [scenario](benchmark::State& state) {
          RunAnswerApi(state, scenario, AnswerRoute::kDirect);
        })
        ->Apply(F10Args);
  }
  benchmark::RegisterBenchmark("BM_F10_ServerManyConnections",
                               RunServerManyConnections)
      ->Arg(1)
      ->Arg(8)
      ->Arg(32)
      ->Arg(128)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("BM_F10_ServerRepeatedQueryHitRate",
                               RunServerRepeatedQueryHitRate)
      ->Arg(2)
      ->Arg(8)
      ->Arg(32)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F10", "frontend session layer: script replay and "
                            "command dispatch over the answering pipeline");
  aqv::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
