// aqv_bench: the end-to-end mediator benchmark (see README.md).
//
//   aqv_bench --workload W --seed S --seconds T [--out FILE]
//             [--trace SPANS.json] [--commit SHA] [--self-test]
//
// Forks the server under test, generates the workload's sessions from the
// seed and warms up one session per connection. Then it either drives the
// server with kConnections closed-loop clients through a fixed amount of
// work that lasts about T seconds (end-to-end metrics), or, with --trace,
// replays the sessions in lock-step for T seconds and breaks each command
// down by layer. Writes one result JSON (stdout by default) and exits 0
// only when every correctness check passed.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "containment/oracle.h"
#include "frontend/session.h"
#include "server.h"
#include "trace.h"
#include "wire.h"
#include "workloads.h"

#ifndef AQV_E2E_BUILD_TYPE
#define AQV_E2E_BUILD_TYPE "unknown"
#endif

namespace aqv_e2e {

namespace {

using aqv::Result;
using aqv::Status;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetupRepetitions = 5;
/// Regression bounds, as a share of the parent's median (README.md, Noise):
/// on the host this was calibrated on, slow spells minutes long move every
/// timing by 20% to 80%, so ten-seed spreads of timings reach 0.25 and
/// more, while the server's peak RSS spreads at most 0.064 (on
/// answer_cold, whose seeds load different problems), under a third of
/// its bound.
constexpr double kTimeBound = 0.25;
constexpr double kMemoryBound = 0.20;
/// The timed phase fails once it runs this many times its nominal length,
/// or kMaxTimedS seconds.
constexpr double kOverrunFactor = 4.0;
constexpr double kMaxTimedS = 120.0;
/// One session in this many is replayed in process after the timed phase.
constexpr int kReplayEvery = 8;
/// Where churn_durable's databases live, relative to the working
/// directory (the checkout root), inside the build directory.
constexpr char kWorkDir[] = "build-e2e/work";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required
  std::string out;
  std::string spans;
  bool trace = false;
  std::string commit = "unknown";
  bool self_test = false;
};

const char kUsage[] =
    "usage: aqv_bench --workload <name> --seed <n> --seconds <s> [--out FILE]\n"
    "                 [--trace SPANS.json] [--commit SHA] [--self-test]\n";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace") {
      args->trace = true;
      args->spans = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// What one client saw during the timed phase.
struct ClientLog {
  /// Round trips in microseconds, by class.
  std::vector<double> us[kNumCls];
  /// The probes' round trips again, by class and command line.
  std::map<std::string, std::vector<double>> probe_us[kNumCls];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
  ResponseChecker checker;
  /// Self-test: corrupt the first answer row this client receives.
  bool tamper = false;
  /// Responses of the sessions kept for the in-process replay, by pool
  /// index: one vector of responses per unit.
  std::map<int, std::vector<std::vector<std::string>>> recorded;
  Clock::time_point end;
};

/// Sends every unit of `session` on `conn`, timing and checking each.
/// Returns false when the connection broke.
bool RunSession(const SessionScript& session, Connection* conn, ClientLog* log,
                std::vector<std::vector<std::string>>* record) {
  log->checker.BeginSession();
  std::vector<std::string> responses;
  for (const Unit& unit : session.units) {
    ++log->attempted;
    Clock::time_point t0 = Clock::now();
    Status st = conn->Exchange(unit.text, unit.lines, &responses);
    Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      ++log->failed;
      log->checker.Fail("`" + unit.text.substr(0, unit.text.find('\n')) +
                        "`: " + st.ToString());
      return false;
    }
    if (unit.cls != Cls::kQuit) {
      log->us[static_cast<int>(unit.cls)].push_back(MicrosBetween(t0, t1));
    }
    if (IsProbe(unit.cls)) {
      log->probe_us[static_cast<int>(unit.cls)][unit.text].push_back(
          MicrosBetween(t0, t1));
    }
    if (log->tamper && unit.cls == Cls::kAnswer && TamperRow(&responses[0])) {
      log->tamper = false;
    }
    if (HasError(responses)) ++log->failed;
    log->checker.Check(unit, responses);
    if (record != nullptr) record->push_back(responses);
  }
  ++log->sessions;
  return true;
}

/// The server, the generated sessions and the warmed-up connections.
struct Setup {
  ServerProcess server;
  Pools pools;
  std::vector<SessionScript> warmups;
  std::vector<Connection> conns;
};

Result<Setup> SetUp(const Args& args, const WorkloadSpec& spec,
                    const std::string& self_exe, const std::string& run_dir,
                    int pool_sessions) {
  AQV_ASSIGN_OR_RETURN(ServerProcess server, ServerProcess::Spawn(self_exe));
  Setup setup{std::move(server), Pools(kConnections), {}, {}};
  for (int c = 0; c < kConnections; ++c) {
    for (int i = 0; i < pool_sessions; ++i) {
      AQV_ASSIGN_OR_RETURN(SessionScript s,
                           MakeSession(spec, args.seed, c, i, run_dir));
      setup.pools[c].push_back(std::move(s));
    }
  }
  ClientLog warmup_log;
  setup.conns.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    AQV_ASSIGN_OR_RETURN(SessionScript warmup,
                         MakeSession(spec, /*seed=*/0, c, kWarmupIndex, run_dir));
    Connection own;
    Connection* conn = &own;
    if (!warmup.own_connection) {
      AQV_ASSIGN_OR_RETURN(Connection persistent,
                           Connection::Open(setup.server.port()));
      setup.conns.push_back(std::move(persistent));
      conn = &setup.conns.back();
    } else {
      AQV_ASSIGN_OR_RETURN(own, Connection::Open(setup.server.port()));
    }
    if (!RunSession(warmup, conn, &warmup_log, nullptr) ||
        warmup_log.checker.violations() > 0) {
      return Status::Internal("warm-up failed: " +
                              (warmup_log.checker.messages().empty()
                                   ? std::string("?")
                                   : warmup_log.checker.messages()[0]));
    }
    setup.warmups.push_back(std::move(warmup));
  }
  return setup;
}

/// Replays the recorded sessions through a fresh in-process Session each
/// and byte-compares every response with what the server sent.
uint64_t ReplayRecorded(const Pools& pools, const std::vector<ClientLog>& logs,
                        ResponseChecker* checker) {
  uint64_t replayed = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (const auto& [index, responses] : logs[c].recorded) {
      const SessionScript& session = pools[c][index];
      aqv::ContainmentOracle oracle;
      aqv::SessionOptions options;
      options.engine.oracle = &oracle;
      options.enable_load = false;
      aqv::Session inline_session(options);
      for (size_t u = 0; u < responses.size(); ++u) {
        const Unit& unit = session.units[u];
        std::vector<std::string> lines = SplitLines(unit.text);
        for (size_t j = 0; j < lines.size() && j < responses[u].size(); ++j) {
          // The replay keeps database directories of its own.
          std::string line =
              unit.cls == Cls::kPersist ? lines[j] + "-replay" : lines[j];
          if (RenderWire(inline_session.Execute(line)) != responses[u][j]) {
            checker->Fail("in-process replay differs from the server on `" +
                          lines[j] + "`");
          }
        }
      }
      ++replayed;
    }
  }
  return replayed;
}

struct Outcome {
  MetricTable metrics;
  ResponseChecker checker;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
  uint64_t replayed = 0;
};

/// The timed phase: kConnections closed-loop clients, each sending its
/// pool of sessions once. Stops early (and fails the run) only when the
/// work overruns its time cap.
Outcome RunTimed(Setup* setup, const Args& args) {
  std::vector<ClientLog> logs(kConnections);
  logs[0].tamper = args.self_test;
  const double cap_s = std::min(kOverrunFactor * args.seconds, kMaxTimedS);
  const Clock::time_point start = Clock::now();
  const Clock::time_point cap =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cap_s));
  const int port = setup->server.port();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      const std::vector<SessionScript>& pool = setup->pools[c];
      for (int i = 0; i < static_cast<int>(pool.size()); ++i) {
        if (Clock::now() >= cap) {
          log.checker.Fail("the work did not finish within " +
                           std::to_string(cap_s) + " s");
          break;
        }
        const SessionScript& session = pool[i];
        Connection own;
        Connection* conn = nullptr;
        if (session.own_connection) {
          auto opened = Connection::Open(port);
          if (!opened.ok()) {
            ++log.failed;
            log.checker.Fail(opened.status().ToString());
            break;
          }
          own = std::move(*opened);
          conn = &own;
        } else {
          conn = &setup->conns[c];
        }
        auto* record = i % kReplayEvery == 0 ? &log.recorded[i] : nullptr;
        if (!RunSession(session, conn, &log, record)) break;
      }
      log.end = Clock::now();
    });
  }
  for (std::thread& t : clients) t.join();

  Outcome out;
  Clock::time_point end = start;
  std::vector<double> us[kNumCls];
  std::map<std::string, std::vector<double>> probe_us[kNumCls];
  for (const ClientLog& log : logs) {
    end = std::max(end, log.end);
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.sessions += log.sessions;
    out.checker.Merge(log.checker);
    for (int k = 0; k < kNumCls; ++k) {
      us[k].insert(us[k].end(), log.us[k].begin(), log.us[k].end());
      for (const auto& [cmd, cmd_us] : log.probe_us[k]) {
        std::vector<double>& merged = probe_us[k][cmd];
        merged.insert(merged.end(), cmd_us.begin(), cmd_us.end());
      }
    }
  }
  out.replayed = ReplayRecorded(setup->pools, logs, &out.checker);

  const double elapsed_s = std::chrono::duration<double>(end - start).count();
  const size_t probes = us[static_cast<int>(Cls::kAnswer)].size() +
                        us[static_cast<int>(Cls::kRewrite)].size();
  out.metrics.Add("probes_per_s", probes / elapsed_s, "1/s", "higher", kTimeBound,
                  probes);
  // A probe class mixes commands whose costs differ a hundredfold, so its
  // pooled p90 falls inside one command's distribution and swings with it
  // (README.md, Noise); the probes' tail is gated per command instead.
  for (Cls cls : {Cls::kLoad, Cls::kAnswer, Cls::kRewrite, Cls::kMutation,
                  Cls::kPersist}) {
    const int k = static_cast<int>(cls);
    out.metrics.AddLatency(ClsName(cls), us[k], "ms", kTimeBound, !IsProbe(cls));
    if (IsProbe(cls)) {
      out.metrics.AddCommandP90(ClsName(cls), probe_us[k], "ms", kTimeBound);
    }
  }
  out.metrics.Add("failed_frac",
                  out.attempted == 0
                      ? 1.0
                      : static_cast<double>(out.failed) / out.attempted,
                  "ratio", "lower", 0.0, out.attempted);
  return out;
}

void WriteResult(std::ostream& os, const Args& args, const Outcome& out,
                 bool correct, const std::map<std::string, std::string>& provenance,
                 const std::vector<Metric>& metrics) {
  os << "{\n  \"workload\": " << JsonString(args.workload)
     << ",\n  \"seed\": " << args.seed
     << ",\n  \"mode\": " << JsonString(args.trace ? "trace" : "e2e")
     << ",\n  \"correct\": " << (correct ? "true" : "false")
     << ",\n  \"attempted\": " << out.attempted
     << ",\n  \"failed\": " << out.failed << ",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    os << (first ? "\n" : ",\n") << "    " << JsonString(key) << ": " << value;
    first = false;
  }
  os << "\n  },\n  \"checks\": {\n    \"violations\": " << out.checker.violations()
     << ",\n    \"answers_checked\": " << out.checker.answers_checked()
     << ",\n    \"verdicts_checked\": " << out.checker.verdicts_checked()
     << ",\n    \"sessions_replayed\": " << out.replayed
     << ",\n    \"messages\": [";
  for (size_t i = 0; i < out.checker.messages().size(); ++i) {
    os << (i ? ", " : "") << JsonString(out.checker.messages()[i]);
  }
  os << "]\n  },\n  \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ",\n" : "\n") << "    " << JsonString(m.name)
       << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit)
       << ", \"better\": " << JsonString(m.better)
       << ", \"bound\": " << (m.bound ? JsonNumber(*m.bound) : "null")
       << ", \"n\": " << m.n << "}";
  }
  os << "\n  }\n}\n";
}

int Main(int argc, char** argv, Clock::time_point process_start) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << kUsage;
    return 2;
  }
  auto spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n" << kUsage;
    return 2;
  }
  const std::string self_exe = argv[0];
  const std::string run_dir = std::string(kWorkDir) + "/" + args.workload + "-s" +
                              std::to_string(args.seed);
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << run_dir << ": " << ec.message() << "\n";
    return 1;
  }
  const int pool_sessions =
      std::max(1, static_cast<int>(std::ceil(spec->sessions_per_s * args.seconds)));

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  const int repetitions = args.trace ? 1 : kSetupRepetitions;
  for (int k = 0; k < repetitions; ++k) {
    const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
    if (setup.has_value()) {
      setup->conns.clear();
      if (!setup->server.Stop().ok()) {
        std::cerr << "server of set-up " << k << " did not stop cleanly\n";
        return 1;
      }
      setup.reset();
    }
    auto made = SetUp(args, *spec, self_exe, run_dir, pool_sessions);
    if (!made.ok()) {
      std::cerr << "set-up failed: " << made.status().ToString() << "\n";
      return 1;
    }
    setup.emplace(std::move(*made));
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  Outcome out;
  std::vector<Metric> metrics;
  if (args.trace) {
    Connection* conn = setup->conns.empty() ? nullptr : &setup->conns[0];
    TraceResult traced = RunTrace(setup->pools, setup->warmups, conn,
                                  setup->server.port(), args.seconds, args.spans);
    out.checker = std::move(traced.checker);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    out.sessions = traced.sessions;
    metrics = traced.metrics.metrics();
  } else {
    out = RunTimed(&*setup, args);
    MetricTable head;
    head.Add("setup_s", Median(setup_s), "s", "lower", kTimeBound, setup_s.size());
    metrics = head.metrics();
    for (const Metric& m : out.metrics.metrics()) metrics.push_back(m);
  }
  setup->conns.clear();
  auto rss = setup->server.Stop();
  if (!rss.ok()) {
    out.checker.Fail("server: " + rss.status().ToString());
  } else if (!args.trace) {
    metrics.push_back(Metric{"server_peak_rss_mb", *rss, "MiB", "lower", kMemoryBound, 1});
  }
  std::filesystem::remove_all(run_dir, ec);

  const bool correct = out.checker.violations() == 0 && out.failed == 0 &&
                       out.attempted > 0;
  std::map<std::string, std::string> provenance = {
      {"commit", JsonString(args.commit)},
      {"aqv_build_type", JsonString(AQV_E2E_BUILD_TYPE)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"seed", std::to_string(args.seed)},
      {"seconds", JsonNumber(args.seconds)},
      {"connections", std::to_string(args.trace ? 1 : kConnections)},
      {"server_workers", std::to_string(kServerWorkers)},
      {"sessions_per_connection", std::to_string(pool_sessions)},
      {"sessions_run", std::to_string(out.sessions)},
      {"setup_repetitions", std::to_string(repetitions)},
      {"flush_policy",
       JsonString("StoreOptions default: sync=true (fsync per journal record "
                  "and snapshot); databases under " + std::string(kWorkDir))},
      {"input_digest", JsonString(InputDigest(setup->pools))},
  };
  if (args.out.empty()) {
    WriteResult(std::cout, args, out, correct, provenance, metrics);
  } else {
    std::ofstream file(args.out);
    WriteResult(file, args, out, correct, provenance, metrics);
    if (!file) {
      std::cerr << "cannot write " << args.out << "\n";
      return 1;
    }
  }
  for (const std::string& message : out.checker.messages()) {
    std::cerr << "check failed: " << message << "\n";
  }
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace aqv_e2e

int main(int argc, char** argv) {
  const auto process_start = aqv_e2e::Clock::now();
  if (argc == 3 && std::string(argv[1]) == "--serve") {
    return aqv_e2e::ServeMain(std::atoi(argv[2]));
  }
  return aqv_e2e::Main(argc, argv, process_start);
}
