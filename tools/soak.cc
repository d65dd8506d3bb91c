/// \file
/// Differential soak/fuzz driver over the TCP frontend: boots a real
/// epoll FrontendServer in-process (one shared cross-connection
/// rewriting-plan cache, containment decided directly), generates
/// randomized LAV scenario families (workload/generator.h), renders each
/// as a churning probed session script (frontend/replay.h), sends each of
/// its `rewrite` lines twice (the repeat is answered from the session's
/// memo on the server's event loop), and replays the scripts over real
/// TCP connections from N concurrent client threads — every response
/// checked byte-for-byte and semantically against an in-process mirror
/// (testing/differential.h) that memoizes containment in its own oracle,
/// which makes the soak a live proof that neither the shared plan cache
/// nor the mirror's oracle perturbs a byte. On divergence the script is
/// ddmin-shrunk against the live server and dumped as a standalone `.aqv`
/// repro that `aqvsh` can replay. A multi-tenant isolation phase
/// (--tenants N) precedes the soak: authenticated tenants interleave
/// their own scenarios on one account-gated server, and any cross-tenant
/// leakage diverges from the mirror. Exit code 0 = clean soak, 1 =
/// divergence (repro written), 2 = usage/setup error, or `(certain)`
/// answers were checked but none was held equal to direct (the
/// completeness check never ran).
///
/// The harness self-test: `--inject-fault-at K` tampers the K-th answer
/// response of the first scenario in flight, as if the server had
/// answered wrongly; a healthy harness must catch it, shrink it, and
/// exit 1. tools/soak.sh runs both modes; knobs and recipes are
/// documented in docs/OPERATIONS.md.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "answering/answering.h"
#include "frontend/replay.h"
#include "frontend/server.h"
#include "rewriting/engine.h"
#include "storage/fs.h"
#include "testing/differential.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace aqv;

struct SoakConfig {
  uint64_t seed = 1;
  int clients = 4;
  int scenarios = 50;
  long min_commands = 10000;
  int duration_s = 0;  // 0 = unbounded; otherwise a hard wall-clock cap.
  int views_min = 50;
  int views_max = 120;
  int preds_min = 10;
  int preds_max = 24;
  int churn_max = 2;
  int inject_fault_at = -1;  // tamper the Nth answer of the first scenario
  int tenants = 2;           // interleaved isolation phase; 0 disables
  std::string repro_dir = ".";
  std::string persist_dir;  // empty = in-memory sessions only
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --seed N             master seed (default 1)\n"
      "  --clients N          concurrent client threads (default 4)\n"
      "  --scenarios N        minimum scenarios to replay (default 50)\n"
      "  --min-commands N     keep generating until N commands sent (10000)\n"
      "  --duration-s N       hard wall-clock cap, 0 = none (default 0)\n"
      "  --views-min/--views-max N    views per scenario band (50..120)\n"
      "  --preds-min/--preds-max N    mediated-schema band (10..24)\n"
      "  --churn-max N        max view-churn cycles per script (default 2)\n"
      "  --inject-fault-at N  self-test: tamper the Nth answer response of\n"
      "                       the first scenario; expect exit 1 + a repro\n"
      "  --tenants N          interleaved multi-tenant isolation phase with\n"
      "                       N authenticated tenants (default 2, 0 = off)\n"
      "  --repro-dir DIR      where divergence repros are written (.)\n"
      "  --persist DIR        persistence churn: every script saves/opens a\n"
      "                       database under DIR/sN (recovery probes)\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, SoakConfig* cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (arg == "--seed") cfg->seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--clients") cfg->clients = std::atoi(v);
    else if (arg == "--scenarios") cfg->scenarios = std::atoi(v);
    else if (arg == "--min-commands") cfg->min_commands = std::atol(v);
    else if (arg == "--duration-s") cfg->duration_s = std::atoi(v);
    else if (arg == "--views-min") cfg->views_min = std::atoi(v);
    else if (arg == "--views-max") cfg->views_max = std::atoi(v);
    else if (arg == "--preds-min") cfg->preds_min = std::atoi(v);
    else if (arg == "--preds-max") cfg->preds_max = std::atoi(v);
    else if (arg == "--churn-max") cfg->churn_max = std::atoi(v);
    else if (arg == "--inject-fault-at") cfg->inject_fault_at = std::atoi(v);
    else if (arg == "--tenants") cfg->tenants = std::atoi(v);
    else if (arg == "--repro-dir") cfg->repro_dir = v;
    else if (arg == "--persist") cfg->persist_dir = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (cfg->clients < 1 || cfg->scenarios < 1 ||
      cfg->views_min < 1 || cfg->views_max < cfg->views_min ||
      cfg->preds_min < 2 || cfg->preds_max < cfg->preds_min) {
    std::fprintf(stderr, "out-of-band flag values\n");
    return false;
  }
  return true;
}

/// The randomized scenario family: spec + script knobs for scenario
/// `index`, a pure function of (config.seed, index).
struct ScenarioPlan {
  GeneratedScenarioSpec spec;
  SoakScriptOptions script;
};

ScenarioPlan PlanScenario(const SoakConfig& cfg, int index) {
  Rng rng(cfg.seed * 1000003ULL + static_cast<uint64_t>(index));
  ScenarioPlan plan;
  GeneratedScenarioSpec& spec = plan.spec;
  spec.seed = rng.Next();
  spec.num_predicates =
      static_cast<int>(rng.NextInRange(cfg.preds_min, cfg.preds_max));
  spec.num_tenants =
      rng.NextBool(0.25) ? static_cast<int>(rng.NextInRange(2, 3)) : 1;
  spec.query_atoms = static_cast<int>(rng.NextInRange(2, 4));
  spec.num_views =
      static_cast<int>(rng.NextInRange(cfg.views_min, cfg.views_max));
  spec.chain_weight = 0.5 + rng.NextDouble();
  spec.star_weight = 0.5 + rng.NextDouble();
  spec.snowflake_weight = 0.5 + rng.NextDouble();
  spec.max_view_atoms = static_cast<int>(rng.NextInRange(2, 4));
  spec.coverage = 0.6 + 0.4 * rng.NextDouble();
  spec.redundancy = 0.3 * rng.NextDouble();
  spec.noise_view_fraction = 0.2 * rng.NextDouble();
  spec.head_keep_prob = 0.4 + 0.5 * rng.NextDouble();
  // Mirrors stay on: they guarantee an equivalent rewriting, which keeps
  // the cost route executable and all four routes comparable.
  spec.guarantee_equivalent = true;
  spec.facts_per_predicate = static_cast<int>(rng.NextInRange(8, 20));
  spec.domain_size = static_cast<int>(rng.NextInRange(16, 48));
  spec.zipf_skew = 1.2 * rng.NextDouble();

  plan.script.seed = rng.Next();
  plan.script.engines = EngineNames();
  plan.script.routes = AnswerRouteNames();
  plan.script.churn_cycles =
      cfg.churn_max > 0 ? static_cast<int>(rng.NextInRange(0, cfg.churn_max))
                        : 0;
  if (!cfg.persist_dir.empty()) {
    // One database directory per scenario: concurrent clients never
    // contend on a flock, and each script's save/open churn is isolated.
    plan.script.persist_dir =
        cfg.persist_dir + "/s" + std::to_string(index);
  }
  return plan;
}

/// `lines` with every `rewrite` line sent twice in a row. Nothing changes
/// the problem in between, so the server answers each repeat from the
/// session's memo on its event loop, and the mirror byte-compares it like
/// any other rewrite.
std::vector<std::string> WithRepeatedRewrites(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    out.push_back(line);
    if (Session::ParseCommand(line).word == "rewrite") out.push_back(line);
  }
  return out;
}

/// The first divergence any client hit, with everything shrinking and the
/// repro dump need.
struct FaultRecord {
  /// "scenario" (the randomized phase) or "tenant" (the isolation phase),
  /// and which one.
  std::string origin = "scenario";
  int index = 0;
  std::vector<std::string> lines;
  Divergence divergence;
  bool injected = false;
  /// Leading lines every shrink candidate and the repro keep (a tenant's
  /// `auth`).
  size_t pinned = 0;
};

std::string FirstLine(const std::string& text) {
  size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

void WriteRepro(const SoakConfig& cfg, const FaultRecord& fault,
                const std::vector<std::string>& shrunk,
                const std::string& path) {
  std::ofstream out(path);
  out << "% aqv soak divergence repro (ddmin-shrunk from "
      << fault.lines.size() << " to " << shrunk.size() << " commands)\n";
  out << "% seed: " << cfg.seed << ", " << fault.origin << ": "
      << fault.index << ", injected fault: "
      << (fault.injected ? "yes" : "no") << "\n";
  out << "% kind: " << fault.divergence.kind << "\n";
  out << "% command: " << fault.divergence.command << "\n";
  out << "% expected: " << FirstLine(fault.divergence.expected) << "\n";
  out << "% actual:   " << FirstLine(fault.divergence.actual) << "\n";
  if (fault.pinned > 0) {
    out << "% the first line authenticates with the soak's account-gated "
           "server; drop it to replay in aqvsh\n";
  }
  out << "% replay with: build/aqvsh " << path << "\n";
  for (const std::string& line : shrunk) out << line << "\n";
  if (shrunk.empty() || shrunk.back() != "quit") out << "quit\n";
}

/// Shrinks `fault`'s script against the live server on `port`, keeping
/// its pinned lines in front of every candidate, and writes the repro
/// under `cfg.repro_dir`.
void ShrinkAndWriteRepro(const SoakConfig& cfg, int port,
                         const FaultRecord& fault) {
  std::printf("[soak] shrinking %zu-command script...\n",
              fault.lines.size());
  // Re-inject a recorded tamper during shrink so the self-test fault
  // stays reproducible on every candidate replay.
  TcpReplayOptions sopts;
  if (fault.injected) sopts.tamper_match = fault.divergence.command;
  const auto body_start = fault.lines.begin() +
                          static_cast<std::ptrdiff_t>(fault.pinned);
  auto with_pinned = [&](const std::vector<std::string>& body) {
    std::vector<std::string> lines(fault.lines.begin(), body_start);
    lines.insert(lines.end(), body.begin(), body.end());
    return lines;
  };
  auto still_diverges = [&](const std::vector<std::string>& body) {
    auto r = ReplayAndCheckOverTcp(port, with_pinned(body), sopts);
    return r.ok() && r->divergence.has_value();
  };
  std::vector<std::string> body(body_start, fault.lines.end());
  if (still_diverges(body)) {
    body = ShrinkScript(std::move(body), still_diverges);
  } else {
    std::printf("[soak] divergence did not reproduce on re-replay; "
                "dumping the unshrunk script\n");
  }
  std::vector<std::string> shrunk = with_pinned(body);
  std::string path = cfg.repro_dir + "/repro-seed" +
                     std::to_string(cfg.seed) + "-" + fault.origin[0] +
                     std::to_string(fault.index) + ".aqv";
  WriteRepro(cfg, fault, shrunk, path);
  std::printf("[soak] repro (%zu command(s)) written to %s\n",
              shrunk.size(), path.c_str());
}

/// The interleaved multi-tenant isolation phase: an account-gated server
/// (one credential per tenant), every tenant authenticating and replaying
/// its own generated scenario concurrently with the others through the
/// shared plan cache. The differential mirror executes each connection's
/// script inline on private state, so any cross-tenant leakage — another
/// tenant's views or facts surfacing in a response — is a byte divergence.
/// `auth` itself is answered at the server boundary and skipped by the
/// mirror. A divergence is reported with its own kind, and the first one
/// is shrunk (the `auth` line kept first) into a repro like the
/// randomized phase's. Exit 0 = isolated, 1 = leakage/divergence, 2 =
/// setup error.
int RunTenantIsolation(const SoakConfig& cfg) {
  ServerOptions options;
  std::vector<std::string> tokens;
  for (int t = 0; t < cfg.tenants; ++t) {
    tokens.push_back("tok-" + std::to_string(cfg.seed * 31 +
                                             static_cast<uint64_t>(t)));
    options.accounts.push_back(
        {"tenant" + std::to_string(t), tokens.back(), true});
  }
  FrontendServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tenant server start failed: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::printf("[soak] tenant isolation: %d tenant(s) interleaved on "
              "127.0.0.1:%d\n",
              cfg.tenants, server.port());

  std::mutex mu;
  std::vector<std::string> failures;
  std::optional<FaultRecord> fault;
  std::atomic<long> commands{0};
  auto tenant_worker = [&](int t) {
    // A distinct small scenario per tenant, seeded disjointly from the
    // main soak's PlanScenario stream.
    GeneratedScenarioSpec spec;
    spec.seed = cfg.seed * 2000003ULL + static_cast<uint64_t>(t) + 1;
    spec.num_predicates = 6;
    spec.query_atoms = 2;
    spec.num_views = 10;
    spec.max_view_atoms = 3;
    spec.facts_per_predicate = 6;
    spec.domain_size = 16;
    auto scenario = GenerateScenario(spec);
    if (!scenario.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back("tenant " + std::to_string(t) +
                         " generation failed: " +
                         scenario.status().ToString());
      return;
    }
    SoakScriptOptions script_options;
    script_options.seed = spec.seed + 17;
    script_options.churn_cycles = 1;
    auto script = SoakScriptFromScenario(*scenario, script_options);
    if (!script.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back("tenant " + std::to_string(t) +
                         " script render failed: " +
                         script.status().ToString());
      return;
    }
    std::vector<std::string> lines =
        WithRepeatedRewrites(SplitScriptLines(script->text));
    lines.insert(lines.begin(),
                 "auth tenant" + std::to_string(t) + " " + tokens[t]);
    auto replay = ReplayAndCheckOverTcp(server.port(), lines,
                                        TcpReplayOptions{});
    std::lock_guard<std::mutex> lock(mu);
    if (!replay.ok()) {
      failures.push_back("tenant " + std::to_string(t) + " replay failed: " +
                         replay.status().ToString());
      return;
    }
    commands.fetch_add(replay->commands_sent);
    if (replay->divergence.has_value()) {
      failures.push_back("tenant " + std::to_string(t) + " DIVERGED at " +
                         replay->divergence->ToString());
      if (!fault.has_value()) {
        FaultRecord record;
        record.origin = "tenant";
        record.index = t;
        record.lines = std::move(lines);
        record.divergence = *replay->divergence;
        record.pinned = 1;
        fault = std::move(record);
      }
    }
  };
  // Two rounds: the second replays the same scripts through the by-then
  // warm shared plan cache — hits must not perturb isolation either.
  for (int round = 0; round < 2 && failures.empty(); ++round) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(cfg.tenants));
    for (int t = 0; t < cfg.tenants; ++t) threads.emplace_back(tenant_worker, t);
    for (std::thread& th : threads) th.join();
  }

  // Gate self-test: the mirror has no auth gate, so an unauthenticated
  // command being refused MUST surface as a divergence — if it does not,
  // the gate silently let the command through.
  auto gate =
      ReplayAndCheckOverTcp(server.port(), {"show views", "quit"},
                            TcpReplayOptions{});
  if (gate.ok() && !gate->divergence.has_value()) {
    failures.push_back(
        "gate self-test: unauthenticated command was not refused");
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "[soak] tenant isolation: %s\n", f.c_str());
  }
  if (fault.has_value()) ShrinkAndWriteRepro(cfg, server.port(), *fault);
  server.Stop();
  if (!failures.empty()) return 1;
  std::printf("[soak] tenant isolation OK: %ld command(s), no cross-tenant "
              "leakage\n",
              commands.load());
  return 0;
}

int Run(const SoakConfig& cfg) {
  if (!cfg.persist_dir.empty()) {
    // Scenario scripts create DIR/sN themselves; DIR must exist first
    // (EnsureDir is one level deep).
    Status dir = EnsureDir(cfg.persist_dir);
    if (!dir.ok()) {
      std::fprintf(stderr, "persist dir: %s\n", dir.ToString().c_str());
      return 2;
    }
  }
  ServerOptions server_options;  // ephemeral port, 64 conns
  FrontendServer server(server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  const int port = server.port();
  std::printf("[soak] server on 127.0.0.1:%d, %d client(s), seed %llu\n",
              port, cfg.clients,
              static_cast<unsigned long long>(cfg.seed));

  std::atomic<int> next_index{0};
  std::atomic<int> scenarios_done{0};
  std::atomic<long> total_commands{0};
  std::atomic<long> total_answers{0};
  std::atomic<long> total_rewrites{0};
  std::atomic<long> total_rederived{0};
  std::atomic<long> total_certain{0};
  std::atomic<long> total_certain_equal{0};
  std::atomic<bool> stop{false};
  std::mutex fault_mu;
  std::optional<FaultRecord> fault;
  std::vector<std::string> errors;
  const auto t0 = std::chrono::steady_clock::now();
  auto expired = [&] {
    if (cfg.duration_s <= 0) return false;
    return std::chrono::steady_clock::now() - t0 >=
           std::chrono::seconds(cfg.duration_s);
  };

  auto worker = [&] {
    while (!stop.load()) {
      if (expired()) break;
      int index = next_index.fetch_add(1);
      if (index >= cfg.scenarios &&
          total_commands.load() >= cfg.min_commands) {
        break;
      }
      ScenarioPlan plan = PlanScenario(cfg, index);
      auto scenario = GenerateScenario(plan.spec);
      if (!scenario.ok()) {
        std::lock_guard<std::mutex> lock(fault_mu);
        errors.push_back("scenario " + std::to_string(index) +
                         " generation failed: " +
                         scenario.status().ToString());
        stop.store(true);
        break;
      }
      auto script = SoakScriptFromScenario(*scenario, plan.script);
      if (!script.ok()) {
        std::lock_guard<std::mutex> lock(fault_mu);
        errors.push_back("scenario " + std::to_string(index) +
                         " script render failed: " +
                         script.status().ToString());
        stop.store(true);
        break;
      }
      std::vector<std::string> lines =
          WithRepeatedRewrites(SplitScriptLines(script->text));
      TcpReplayOptions ropts;
      if (cfg.inject_fault_at >= 0 && index == 0) {
        ropts.tamper_at_answer = cfg.inject_fault_at;
      }
      auto replay = ReplayAndCheckOverTcp(port, lines, ropts);
      if (!replay.ok()) {
        std::lock_guard<std::mutex> lock(fault_mu);
        errors.push_back("scenario " + std::to_string(index) +
                         " replay failed: " + replay.status().ToString());
        stop.store(true);
        break;
      }
      total_commands.fetch_add(replay->commands_sent);
      total_answers.fetch_add(static_cast<long>(replay->answers_checked));
      total_rewrites.fetch_add(static_cast<long>(replay->rewrites_checked));
      total_rederived.fetch_add(
          static_cast<long>(replay->rewrites_rederived));
      total_certain.fetch_add(static_cast<long>(replay->certain_checked));
      total_certain_equal.fetch_add(
          static_cast<long>(replay->certain_held_equal));
      int done = scenarios_done.fetch_add(1) + 1;
      if (replay->divergence.has_value()) {
        std::lock_guard<std::mutex> lock(fault_mu);
        if (!fault.has_value()) {
          FaultRecord record;
          record.index = index;
          record.lines = std::move(lines);
          record.divergence = *replay->divergence;
          record.injected = ropts.tamper_at_answer >= 0;
          fault = std::move(record);
        }
        stop.store(true);
        break;
      }
      if (done % 10 == 0 || done == cfg.scenarios) {
        std::printf("[soak] %d scenario(s), %ld command(s), %ld answer "
                    "check(s) (%ld certain, %ld held equal to direct), "
                    "%ld rewrite check(s), %ld re-derived\n",
                    done, total_commands.load(), total_answers.load(),
                    total_certain.load(), total_certain_equal.load(),
                    total_rewrites.load(), total_rederived.load());
      }
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) clients.emplace_back(worker);
  for (std::thread& t : clients) t.join();

  int exit_code = 0;
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "[soak] error: %s\n", e.c_str());
    }
    exit_code = 2;
  } else if (fault.has_value()) {
    std::printf("[soak] DIVERGENCE at %s\n",
                fault->divergence.ToString().c_str());
    ShrinkAndWriteRepro(cfg, port, *fault);
    exit_code = 1;
  }
  if (exit_code == 0 && total_certain.load() > 0 &&
      total_certain_equal.load() == 0) {
    // Every `(certain)` answer met only the subset check: a run that
    // drops certain rows would have passed it.
    std::fprintf(stderr,
                 "[soak] error: %ld (certain) answer(s) checked, none held "
                 "equal to direct; the completeness check did not run\n",
                 total_certain.load());
    exit_code = 2;
  }

  PlanCacheStats plans = server.plan_cache().stats();
  std::printf("[soak] shared plan cache: hits=%llu misses=%llu "
              "hit_rate=%.3f\n",
              static_cast<unsigned long long>(plans.hits),
              static_cast<unsigned long long>(plans.misses),
              plans.hit_rate());
  server.Stop();
  std::printf("[soak] done: %d scenario(s), %ld command(s), %ld answer "
              "check(s) (%ld certain, %ld held equal to direct), %ld "
              "rewrite check(s), %ld re-derived, %s\n",
              scenarios_done.load(), total_commands.load(),
              total_answers.load(), total_certain.load(),
              total_certain_equal.load(), total_rewrites.load(),
              total_rederived.load(),
              exit_code == 0 ? "no divergence"
                             : (exit_code == 1 ? "DIVERGENCE" : "ERROR"));
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig cfg;
  if (!ParseFlags(argc, argv, &cfg)) {
    Usage(argv[0]);
    return 2;
  }
  if (cfg.tenants >= 2) {
    int tenant_rc = RunTenantIsolation(cfg);
    if (tenant_rc != 0) return tenant_rc;
  }
  return Run(cfg);
}
