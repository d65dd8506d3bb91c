#include "trace.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "answering/answering.h"
#include "containment/oracle.h"
#include "cq/catalog.h"
#include "cq/parser.h"
#include "eval/certain.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "frontend/session.h"
#include "rewriting/engine.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/planner.h"
#include "service/plan_cache.h"
#include "storage/fault.h"
#include "views/view.h"

namespace aqv_e2e {

namespace {

/// A timed interval.
struct Interval {
  Clock::time_point a;
  Clock::time_point b;
  double us() const { return MicrosBetween(a, b); }
};

template <typename F>
auto Time(Interval* iv, F&& f) {
  iv->a = Clock::now();
  auto result = f();
  iv->b = Clock::now();
  return result;
}

/// One span: `parent` is 0 for a command's root. Child spans of a command
/// are in-process replays of work its parent did, so they follow their
/// parent in time instead of nesting inside it.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t cmd = 0;
  uint32_t name = 0;  // index into TraceRun::names_
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct CommandInfo {
  uint64_t cmd = 0;
  Cls cls = Cls::kLoad;
  std::string first_line;
  int lines = 0;
};

std::string FirstWord(const std::string& line) {
  return line.substr(0, line.find(' '));
}

/// `answer route <r> [with <e>]` -> (route, engine); the session's default
/// engine is minicon.
std::pair<std::string, std::string> RouteAndEngine(const std::string& line) {
  std::string route = "complete";
  std::string engine = "minicon";
  std::vector<std::string> words;
  for (size_t i = 0; i < line.size();) {
    size_t end = line.find(' ', i);
    if (end == std::string::npos) end = line.size();
    if (end > i) words.push_back(line.substr(i, end - i));
    i = end + 1;
  }
  for (size_t i = 1; i + 1 < words.size(); i += 2) {
    if (words[i] == "route") route = words[i + 1];
    if (words[i] == "with") engine = words[i + 1];
  }
  return {route, engine};
}

/// The counter `key=<value>` on the line of `stats` that starts with
/// `prefix` (a `show stats` response), or 0.
double StatsField(const std::string& stats, const std::string& prefix,
                  const std::string& key) {
  for (const std::string& line : SplitLines(stats)) {
    if (line.rfind(prefix, 0) != 0) continue;
    size_t at = line.find(" " + key + "=");
    if (at == std::string::npos) return 0;
    return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
  }
  return 0;
}

aqv::EngineOptions EngineWith(aqv::ContainmentOracle* oracle) {
  aqv::EngineOptions options;
  options.oracle = oracle;
  return options;
}

aqv::SessionOptions ReplicaOptions(aqv::ContainmentOracle* oracle) {
  aqv::SessionOptions options;
  options.engine = EngineWith(oracle);
  options.enable_load = false;
  return options;
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

class TraceRun {
 public:
  explicit TraceRun(Clock::time_point origin) : origin_(origin) {}

  /// Runs a session the server has already seen (a warm-up or an untraced
  /// session) through the replicas, untimed, so their caches see every
  /// call the server's shared caches saw.
  void Prime(const SessionScript& session);

  /// Sends one session; a traced one is also replayed in process.
  void RunSession(const SessionScript& session, Connection* conn, bool traced);

  void Finish(const std::string& stats_before, const std::string& stats_after);
  bool WriteSpans(const std::string& path) const;

  TraceResult& result() { return result_; }

 private:
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t cmd,
                  const Interval& iv);
  void Push(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void NewReplicas();

  /// Runs `line` on the mirror and checks it renders `expected`.
  void Mirror(const std::string& line, const std::string& expected, Interval* iv);
  void Replay(const SessionScript& session, const Unit& unit,
              const std::vector<std::string>& responses, uint64_t cmd,
              uint64_t root, double rtt_us);
  void ReplayLoad(const std::vector<std::string>& lines,
                  const std::vector<std::string>& responses, uint64_t cmd,
                  uint64_t root, size_t bytes);
  void ReplayMutation(const std::string& line, const std::string& response,
                      uint64_t cmd, uint64_t root);
  void ReplayPersist(const SessionScript& session, const std::string& line,
                     const std::string& response, uint64_t cmd, uint64_t root);
  /// Returns the session's self time (its Execute minus the layer call).
  double ReplayRewrite(const std::string& line, const std::string& response,
                       uint64_t cmd, uint64_t root, double* exec_us);
  double ReplayAnswer(const std::string& line, const std::string& response,
                      uint64_t cmd, uint64_t root, double* exec_us);
  /// The answering pipeline's stages, replayed one call at a time on the
  /// third replica. Returns their summed time.
  double AnswerParts(const std::string& route, const std::string& engine,
                     uint64_t cmd, uint64_t parent);
  void CountEval(const aqv::EvalStats& stats, uint64_t answer_rows);
  void Problem(const std::string& where, const aqv::Status& status);

  Clock::time_point origin_;
  TraceResult result_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<CommandInfo> commands_;
  uint64_t next_cmd_ = 1;
  std::map<std::string, std::vector<double>> samples_;

  // Three replicas of the traced session, each with caches of its own
  // that see the same calls, so each call meets the cache state the
  // server's call met: the mirror (A) times Session::Execute, B times the
  // layer call Execute wraps, and C times that call's stages.
  aqv::ContainmentOracle oracle_a_{size_t{1} << 20, 1};
  aqv::ContainmentOracle oracle_b_{size_t{1} << 20, 1};
  aqv::ContainmentOracle oracle_c_{size_t{1} << 20, 1};
  aqv::RewritePlanCache plan_a_;
  aqv::RewritePlanCache plan_b_;
  std::unique_ptr<aqv::Session> a_;
  std::unique_ptr<aqv::Session> b_;
  std::unique_ptr<aqv::Session> c_;
  /// Bytes of the problem the traced session holds (load + mutations).
  uint64_t live_bytes_ = 0;

  // Round trips by class, untraced [0] and traced [1] sessions.
  std::vector<double> rtt_us_[2][kNumCls];
  // Per-class sums behind the remainder check.
  double sum_rtt_[kNumCls] = {};
  double sum_exec_[kNumCls] = {};
  uint64_t replayed_[kNumCls] = {};
  uint64_t engine_runs_ = 0;
  aqv::RewriteStats search_;
  uint64_t storage_ops_ = 0;
  uint64_t storage_points_ = 0;
  uint64_t storage_bytes_ = 0;
  uint64_t storage_logical_bytes_ = 0;
  uint64_t evaluations_ = 0;
  aqv::EvalStats eval_;
  uint64_t answer_rows_ = 0;
};

uint64_t TraceRun::Record(const std::string& name, uint64_t parent,
                          uint64_t cmd, const Interval& iv) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.cmd = cmd;
  auto [it, added] = name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (added) names_.push_back(name);
  span.name = it->second;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(iv.a - origin_).count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(iv.b - origin_).count();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRun::Problem(const std::string& where, const aqv::Status& status) {
  result_.checker.Fail("trace replay of `" + where + "`: " + status.ToString());
}

void TraceRun::Mirror(const std::string& line, const std::string& expected,
                      Interval* iv) {
  aqv::CommandResult r = Time(iv, [&] { return a_->Execute(line); });
  if (RenderWire(r) != expected) {
    result_.checker.Fail("mirror session disagrees with the server on `" +
                         line + "`");
  }
}

void TraceRun::NewReplicas() {
  aqv::SessionOptions mirror = ReplicaOptions(&oracle_a_);
  mirror.plan_cache = &plan_a_;
  a_ = std::make_unique<aqv::Session>(mirror);
  b_ = std::make_unique<aqv::Session>(ReplicaOptions(&oracle_b_));
  c_ = std::make_unique<aqv::Session>(ReplicaOptions(&oracle_c_));
  live_bytes_ = 0;
}

void TraceRun::Prime(const SessionScript& session) {
  NewReplicas();
  for (const Unit& unit : session.units) {
    for (const std::string& line : SplitLines(unit.text)) {
      if (unit.cls == Cls::kPersist) {
        a_->Execute(line + "-mirror");
        continue;
      }
      a_->Execute(line);
      b_->Execute(line);
      c_->Execute(line);
    }
  }
}

void TraceRun::RunSession(const SessionScript& session, Connection* conn,
                          bool traced) {
  result_.checker.BeginSession();
  ++result_.sessions;
  if (traced) NewReplicas();
  std::vector<std::string> responses;
  for (const Unit& unit : session.units) {
    const uint64_t cmd = next_cmd_++;
    const int cls = static_cast<int>(unit.cls);
    // A probe is bracketed by two comment lines, which the server answers
    // `ok` without doing anything: the first wakes the server's threads
    // after the in-process replay of the previous command, the second
    // measures the transport under the same conditions as the probe.
    const bool bracket = traced && IsProbe(unit.cls);
    std::vector<std::string> noop_responses;
    if (bracket) (void)conn->Exchange("%\n", 1, &noop_responses);
    Interval rtt;
    ++result_.attempted;
    aqv::Status st = Time(&rtt, [&] {
      return conn->Exchange(unit.text, unit.lines, &responses);
    });
    if (!st.ok()) {
      ++result_.failed;
      result_.checker.Fail(st.ToString());
      return;
    }
    if (bracket) {
      Interval noop;
      aqv::Status noop_st =
          Time(&noop, [&] { return conn->Exchange("%\n", 1, &noop_responses); });
      if (noop_st.ok()) {
        Record("frontend.noop_rtt", 0, cmd, noop);
        Push("noop_rtt_us", noop.us());
      }
    }
    if (HasError(responses)) ++result_.failed;
    result_.checker.Check(unit, responses);
    if (unit.cls == Cls::kQuit) continue;
    rtt_us_[traced ? 1 : 0][cls].push_back(rtt.us());
    if (!traced) continue;
    const uint64_t root = Record("frontend.rtt", 0, cmd, rtt);
    commands_.push_back(CommandInfo{cmd, unit.cls,
                                    unit.text.substr(0, unit.text.find('\n')),
                                    unit.lines});
    Replay(session, unit, responses, cmd, root, rtt.us());
  }
}

void TraceRun::Replay(const SessionScript& session, const Unit& unit,
                      const std::vector<std::string>& responses, uint64_t cmd,
                      uint64_t root, double rtt_us) {
  std::vector<std::string> lines = SplitLines(unit.text);
  if (lines.size() != responses.size()) return;  // already a violation
  const int cls = static_cast<int>(unit.cls);
  switch (unit.cls) {
    case Cls::kLoad:
      ReplayLoad(lines, responses, cmd, root, unit.text.size());
      return;
    case Cls::kMutation:
      ReplayMutation(lines[0], responses[0], cmd, root);
      return;
    case Cls::kPersist:
      ReplayPersist(session, lines[0], responses[0], cmd, root);
      return;
    case Cls::kRewrite:
    case Cls::kAnswer: {
      double exec_us = 0;
      double self_us = unit.cls == Cls::kRewrite
                           ? ReplayRewrite(lines[0], responses[0], cmd, root, &exec_us)
                           : ReplayAnswer(lines[0], responses[0], cmd, root, &exec_us);
      Push("execute_us", exec_us);
      Push("session_self_us", self_us);
      Push("transport_us", rtt_us - exec_us);
      Push("response_bytes", static_cast<double>(responses[0].size()));
      sum_rtt_[cls] += rtt_us;
      sum_exec_[cls] += exec_us;
      ++replayed_[cls];
      return;
    }
    case Cls::kQuit:
      return;
  }
}

void TraceRun::ReplayLoad(const std::vector<std::string>& lines,
                          const std::vector<std::string>& responses,
                          uint64_t cmd, uint64_t root, size_t bytes) {
  Interval exec;
  exec.a = Clock::now();
  for (size_t i = 0; i < lines.size(); ++i) {
    Interval one;
    Mirror(lines[i], responses[i], &one);
  }
  exec.b = Clock::now();
  const uint64_t session_span = Record("frontend.session", root, cmd, exec);
  Push("load_us_per_line", exec.us() / static_cast<double>(lines.size()));

  // The parser alone, into a scratch catalog.
  aqv::Catalog scratch;
  Interval parse;
  aqv::Status parsed = Time(&parse, [&] {
    for (const std::string& line : lines) {
      const std::string word = FirstWord(line);
      const std::string rest = line.substr(word.size());
      if (word == "fact") {
        auto atom = aqv::ParseFact(rest, &scratch);
        if (!atom.ok()) return atom.status();
      } else if (word == "view" || word == "query") {
        auto rules = aqv::ParseProgram(rest, &scratch);
        if (!rules.ok()) return rules.status();
      }
    }
    return aqv::Status::OK();
  });
  if (!parsed.ok()) Problem("load", parsed);
  Record("cq.parse", session_span, cmd, parse);
  Push("parse_us_per_line", parse.us() / static_cast<double>(lines.size()));

  for (const std::string& line : lines) {
    b_->Execute(line);
    c_->Execute(line);
  }
  live_bytes_ = bytes;
}

void TraceRun::ReplayMutation(const std::string& line,
                              const std::string& response, uint64_t cmd,
                              uint64_t root) {
  const bool journaled = a_->store() != nullptr;
  if (journaled) aqv::FaultArm(-1, -1);
  Interval exec;
  Mirror(line, response, &exec);
  Record("frontend.session", root, cmd, exec);
  if (journaled) {
    aqv::FaultProbe probe = aqv::FaultDisarm();
    ++storage_ops_;
    storage_points_ += probe.points;
    storage_bytes_ += probe.bytes;
    storage_logical_bytes_ += line.size() + 1;
  }
  // B holds no store: the same line there costs everything but the
  // journal append.
  Interval detached;
  Time(&detached, [&] { return b_->Execute(line); });
  c_->Execute(line);
  if (journaled) Push("journal_us", exec.us() - detached.us());
  live_bytes_ = FirstWord(line) == "reset" ? 0 : live_bytes_ + line.size() + 1;
}

void TraceRun::ReplayPersist(const SessionScript& session,
                             const std::string& line,
                             const std::string& response, uint64_t cmd,
                             uint64_t root) {
  // The mirror keeps a database directory of its own.
  const bool save = FirstWord(line) == "save";
  aqv::FaultArm(-1, -1);
  Interval exec;
  Mirror(line + "-mirror", response, &exec);
  aqv::FaultProbe probe = aqv::FaultDisarm();
  Record(save ? "storage.snapshot" : "storage.recover", root, cmd, exec);
  Push(save ? "snapshot_us" : "recover_us", exec.us());
  ++storage_ops_;
  storage_points_ += probe.points;
  storage_bytes_ += probe.bytes;
  if (save && live_bytes_ > 0) {
    storage_logical_bytes_ += live_bytes_;
    Push("space_amp",
         static_cast<double>(DirectoryBytes(session.persist_dir + "-mirror")) /
             static_cast<double>(live_bytes_));
  }
}

double TraceRun::ReplayRewrite(const std::string& line,
                               const std::string& response, uint64_t cmd,
                               uint64_t root, double* exec_us) {
  const std::string engine = line.substr(line.rfind(' ') + 1);
  const uint64_t hits_before = plan_a_.stats().hits;
  Interval exec;
  Mirror(line, response, &exec);
  *exec_us = exec.us();
  const bool hit = plan_a_.stats().hits > hits_before;
  const uint64_t session_span = Record("frontend.session", root, cmd, exec);

  // What the session does before it can answer from the plan cache:
  // render the problem and look the key up.
  Interval key;
  Time(&key, [&] {
    std::string query_text;
    for (const aqv::Query& d : b_->query()->disjuncts) query_text += d.ToString() + "\n";
    std::string views_text;
    for (const aqv::View& v : b_->views().views()) {
      views_text += v.definition.ToString() + "\n";
    }
    std::string k = aqv::RewritePlanCache::MakeKey(engine, "", query_text, views_text);
    bool found = plan_b_.Lookup(k).has_value();
    if (!found) plan_b_.Insert(k, aqv::RewritePlanCache::Plan{});
    return found;
  });
  Record("service.plan_cache.key", session_span, cmd, key);
  Push("plan_key_us", key.us());
  if (hit) return exec.us();

  aqv::RewriteRequest request;
  request.query = *b_->query();
  request.views = &b_->views();
  request.options = EngineWith(&oracle_b_);
  Interval run;
  auto response_b = Time(&run, [&] { return aqv::RunEngine(engine, request); });
  if (!response_b.ok()) {
    Problem(line, response_b.status());
    return exec.us();
  }
  Record("rewriting." + engine, session_span, cmd, run);
  Push("rewriting." + engine, run.us());
  Push("engine_us", run.us());
  ++engine_runs_;
  const aqv::RewriteStats& s = response_b->stats;
  search_.num_candidates += s.num_candidates;
  search_.combinations += s.combinations;
  search_.checks += s.checks;
  search_.oracle.hits += s.oracle.hits;
  search_.oracle.misses += s.oracle.misses;
  return exec.us() - run.us();
}

double TraceRun::ReplayAnswer(const std::string& line,
                              const std::string& response, uint64_t cmd,
                              uint64_t root, double* exec_us) {
  auto [route_name, engine] = RouteAndEngine(line);
  Interval exec;
  Mirror(line, response, &exec);
  *exec_us = exec.us();
  const uint64_t session_span = Record("frontend.session", root, cmd, exec);

  auto route = aqv::AnswerRouteByName(route_name);
  if (!route.ok()) {
    Problem(line, route.status());
    return exec.us();
  }
  aqv::AnswerRequest request;
  request.query = *b_->query();
  request.views = &b_->views();
  request.base = &b_->base();
  request.engine = engine;
  request.route = *route;
  request.options = EngineWith(&oracle_b_);
  Interval whole;
  auto answered = Time(&whole, [&] { return aqv::AnswerQuery(request); });
  if (!answered.ok()) {
    Problem(line, answered.status());
    return exec.us();
  }
  const uint64_t answer_span =
      Record("answering." + route_name, session_span, cmd, whole);
  Push("answering." + route_name, whole.us());
  double parts_us = AnswerParts(route_name, engine, cmd, answer_span);
  Push("answering_self_us", whole.us() - parts_us);
  return exec.us() - whole.us();
}

void TraceRun::CountEval(const aqv::EvalStats& stats, uint64_t answer_rows) {
  ++evaluations_;
  eval_.intermediate_rows += stats.intermediate_rows;
  eval_.index_builds += stats.index_builds;
  eval_.index_hits += stats.index_hits;
  answer_rows_ += answer_rows;
}

double TraceRun::AnswerParts(const std::string& route, const std::string& engine,
                             uint64_t cmd, uint64_t parent) {
  const aqv::Session& c = *c_;
  const aqv::UnionQuery& query = *c.query();
  const aqv::Query& q0 = query.disjuncts[0];
  const aqv::EvalOptions eval;
  double total = 0;
  auto evaluate = [&](const char* what, auto&& call) {
    aqv::EvalStats stats;
    Interval iv;
    auto rows = Time(&iv, [&] { return call(&stats); });
    if (!rows.ok()) {
      Problem(what, rows.status());
      return;
    }
    Record("eval.evaluate", parent, cmd, iv);
    Push("evaluate_us", iv.us());
    CountEval(stats, rows->size());
    total += iv.us();
  };

  if (route == "direct") {
    evaluate("direct", [&](aqv::EvalStats* s) {
      return aqv::EvaluateUnion(query, c.base(), eval, s);
    });
    return total;
  }

  aqv::EvalStats materialize_stats;
  Interval mat;
  auto extents = Time(&mat, [&] {
    return aqv::MaterializeViews(c.views(), c.base(), eval, &materialize_stats);
  });
  if (!extents.ok()) {
    Problem("materialize", extents.status());
    return total;
  }
  Record("eval.materialize", parent, cmd, mat);
  Push("materialize_us", mat.us());
  Push("materialize_rows", static_cast<double>(extents->TotalTuples()));
  total += mat.us();

  if (route == "complete") {
    aqv::RewriteRequest request;
    request.query = query;
    request.views = &c.views();
    request.options = EngineWith(&oracle_c_);
    Interval run;
    auto rewritten = Time(&run, [&] { return aqv::RunEngine(engine, request); });
    if (!rewritten.ok()) {
      Problem("rewrite", rewritten.status());
      return total;
    }
    Record("rewriting." + engine, parent, cmd, run);
    Push("rewriting." + engine, run.us());
    Push("engine_us", run.us());
    total += run.us();
    for (const aqv::Query& d : rewritten->rewritings.disjuncts) {
      // Partial rewritings (base atoms) are off by default; the benchmark
      // does not replay their merged evaluation.
      if (!aqv::UsesOnlyViews(d, c.views())) return total;
    }
    evaluate("complete", [&](aqv::EvalStats* s) {
      return aqv::EvaluateRewritingUnion(q0, rewritten->rewritings, *extents,
                                         eval, s);
    });
  } else if (route == "inverse-rules") {
    aqv::EvalStats stats;
    Interval iv;
    auto rows = Time(&iv, [&]() -> aqv::Result<aqv::Relation> {
      AQV_ASSIGN_OR_RETURN(aqv::InverseRuleSet rules, aqv::BuildInverseRules(c.views()));
      return aqv::CertainAnswersViaInverseRules(query, rules, *extents, eval, &stats);
    });
    if (!rows.ok()) {
      Problem("inverse-rules", rows.status());
      return total;
    }
    Record("eval.inverse_rules", parent, cmd, iv);
    Push("inverse_rules_us", iv.us());
    total += iv.us();
  } else if (route == "cost") {
    aqv::PlannerOptions options;
    options.engine = EngineWith(&oracle_c_);
    Interval plan;
    auto plans = Time(&plan, [&] {
      return aqv::ChooseBestPlan(q0, c.views(),
                                 aqv::ExtentStats::FromDatabase(*extents),
                                 aqv::ExtentStats::FromDatabase(c.base()), options);
    });
    if (!plans.ok() || plans->best < 0) {
      Problem("cost", plans.ok() ? aqv::Status::Internal("no plan") : plans.status());
      return total;
    }
    Record("rewriting.planner", parent, cmd, plan);
    Push("planner_us", plan.us());
    total += plan.us();
    const aqv::PlanChoice& chosen = plans->plans[plans->best];
    if (chosen.complete) {
      evaluate("cost", [&](aqv::EvalStats* s) {
        return aqv::EvaluateQuery(chosen.rewriting, *extents, eval, s);
      });
    } else if (chosen.engine == "direct") {
      evaluate("cost", [&](aqv::EvalStats* s) {
        return aqv::EvaluateQuery(chosen.rewriting, c.base(), eval, s);
      });
    }
  }
  return total;
}

void TraceRun::Finish(const std::string& stats_before,
                      const std::string& stats_after) {
  MetricTable& m = result_.metrics;
  auto sample = [&](const std::string& name) -> const std::vector<double>& {
    return samples_[name];
  };
  auto median = [&](const std::string& metric, const std::string& name,
                    const char* unit) {
    const std::vector<double>& v = sample(name);
    if (!v.empty()) m.Add(metric, Median(v), unit, "lower", std::nullopt, v.size());
  };
  auto p50_p90 = [&](const std::string& metric, const std::string& name) {
    const std::vector<double>& v = sample(name);
    if (v.empty()) return;
    m.Add(metric + "_p50_us", Percentile(v, 0.5), "us", "lower", std::nullopt, v.size());
    m.Add(metric + "_p90_us", Percentile(v, 0.9), "us", "lower", std::nullopt, v.size());
  };
  auto per = [&](const std::string& metric, double total, uint64_t n,
                 const char* unit, const char* better) {
    if (n > 0) {
      m.Add(metric, total / static_cast<double>(n), unit, better, std::nullopt, n);
    }
  };
  auto mean = [&](const std::string& metric, const std::string& name,
                  const char* unit) {
    const std::vector<double>& v = sample(name);
    if (!v.empty()) m.Add(metric, Mean(v), unit, "lower", std::nullopt, v.size());
  };

  // frontend
  median("frontend.noop_rtt_us", "noop_rtt_us", "us");
  median("frontend.transport_us", "transport_us", "us");
  median("frontend.execute_us", "execute_us", "us");
  median("frontend.session_self_us", "session_self_us", "us");
  median("frontend.load_us_per_line", "load_us_per_line", "us");
  mean("frontend.response_bytes", "response_bytes", "bytes");
  median("cq.parse_us_per_line", "parse_us_per_line", "us");

  // service: the server's own counters over the traced phase
  auto delta = [&](const char* prefix, const char* key) {
    return StatsField(stats_after, prefix, key) - StatsField(stats_before, prefix, key);
  };
  const double plan_hits = delta("plan_cache:", "hits");
  const double plan_misses = delta("plan_cache:", "misses");
  per("service.plan_cache.hit_rate", plan_hits, static_cast<uint64_t>(plan_hits + plan_misses),
      "ratio", "higher");
  uint64_t rewrites_sent = rtt_us_[0][static_cast<int>(Cls::kRewrite)].size() +
                           rtt_us_[1][static_cast<int>(Cls::kRewrite)].size();
  per("service.plan_cache.misses_per_rewrite", plan_misses, rewrites_sent, "count",
      "lower");
  median("service.plan_cache.key_us", "plan_key_us", "us");
  const double oracle_hits = delta("oracle:", "hits");
  const double oracle_misses = delta("oracle:", "misses");
  per("service.oracle.hit_rate", oracle_hits,
      static_cast<uint64_t>(oracle_hits + oracle_misses), "ratio", "higher");
  m.Add("service.failed", delta("service:", "failed"), "count", "lower", std::nullopt,
        result_.attempted);

  // answering
  for (const char* route : {"direct", "complete", "cost", "inverse-rules"}) {
    p50_p90(std::string("answering.") + route, std::string("answering.") + route);
  }
  median("answering.self_us", "answering_self_us", "us");

  // rewriting and containment
  p50_p90("rewriting.engine", "engine_us");
  for (const char* engine : {"lmss", "ucq", "minicon", "bucket"}) {
    p50_p90(std::string("rewriting.") + engine, std::string("rewriting.") + engine);
  }
  per("rewriting.candidates", search_.num_candidates, engine_runs_, "count", "lower");
  per("rewriting.combinations", search_.combinations, engine_runs_, "count", "lower");
  per("rewriting.checks", search_.checks, engine_runs_, "count", "lower");
  median("rewriting.planner_us", "planner_us", "us");
  per("containment.lookups", search_.oracle.lookups(), engine_runs_, "count", "lower");
  per("containment.misses", search_.oracle.misses, engine_runs_, "count", "lower");
  per("containment.hit_rate", search_.oracle.hits, search_.oracle.lookups(), "ratio",
      "higher");

  // eval
  median("eval.materialize_us", "materialize_us", "us");
  mean("eval.materialize_rows", "materialize_rows", "rows");
  p50_p90("eval.evaluate", "evaluate_us");
  per("eval.intermediate_rows", eval_.intermediate_rows, evaluations_, "rows", "lower");
  per("eval.rows_per_answer", eval_.intermediate_rows, answer_rows_, "rows", "lower");
  per("eval.index_builds", eval_.index_builds, evaluations_, "count", "lower");
  per("eval.index_hits", eval_.index_hits, evaluations_, "count", "higher");
  median("eval.inverse_rules_us", "inverse_rules_us", "us");

  // storage
  median("storage.snapshot_us", "snapshot_us", "us");
  median("storage.recover_us", "recover_us", "us");
  median("storage.journal_us", "journal_us", "us");
  per("storage.durable_points_per_op", storage_points_, storage_ops_, "count", "lower");
  per("storage.write_amp", storage_bytes_, storage_logical_bytes_, "ratio", "lower");
  median("storage.space_amp", "space_amp", "ratio");

  // The checks on the decomposition itself: a probe's round trip should be
  // the transport (the median no-op round trip) plus its Execute.
  const double noop_us = Median(sample("noop_rtt_us"));
  auto remainder = [&](std::initializer_list<Cls> classes) -> std::optional<double> {
    double rtt = 0;
    double parts = 0;
    for (Cls c : classes) {
      const int i = static_cast<int>(c);
      rtt += sum_rtt_[i];
      parts += sum_exec_[i] + replayed_[i] * noop_us;
    }
    if (rtt <= 0) return std::nullopt;
    return (rtt - parts) / rtt;
  };
  const uint64_t answers = replayed_[static_cast<int>(Cls::kAnswer)];
  const uint64_t rewrites = replayed_[static_cast<int>(Cls::kRewrite)];
  if (auto r = remainder({Cls::kAnswer, Cls::kRewrite})) {
    m.Add("trace.remainder_frac", *r, "ratio", "lower", std::nullopt, answers + rewrites);
  }
  if (auto r = remainder({Cls::kAnswer})) {
    m.Add("trace.remainder_frac.answer", *r, "ratio", "lower", std::nullopt, answers);
  }
  if (auto r = remainder({Cls::kRewrite})) {
    m.Add("trace.remainder_frac.rewrite", *r, "ratio", "lower", std::nullopt, rewrites);
  }
  std::vector<double> probes[2];
  for (int t = 0; t < 2; ++t) {
    for (Cls c : {Cls::kAnswer, Cls::kRewrite}) {
      const auto& v = rtt_us_[t][static_cast<int>(c)];
      probes[t].insert(probes[t].end(), v.begin(), v.end());
    }
  }
  if (!probes[0].empty() && !probes[1].empty()) {
    m.Add("trace.rtt_inflation", Median(probes[1]) / Median(probes[0]), "ratio",
          "lower", std::nullopt, probes[1].size());
  }
}

bool TraceRun::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"commands\": [";
  for (size_t i = 0; i < commands_.size(); ++i) {
    const CommandInfo& c = commands_[i];
    out << (i ? ",\n" : "\n") << "{\"cmd\": " << c.cmd << ", \"cls\": "
        << JsonString(ClsName(c.cls)) << ", \"text\": " << JsonString(c.first_line)
        << ", \"lines\": " << c.lines << "}";
  }
  out << "],\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"cmd\": " << s.cmd << ", \"name\": " << JsonString(names_[s.name])
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace

TraceResult RunTrace(const Pools& pools, const std::vector<SessionScript>& warmups,
                     Connection* conn, int port, double seconds,
                     const std::string& spans_path) {
  const Clock::time_point origin = Clock::now();
  const auto deadline = origin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  TraceRun run(origin);
  for (const SessionScript& warmup : warmups) run.Prime(warmup);
  auto stats = [&]() -> std::string {
    auto stats_conn = Connection::Open(port);
    std::vector<std::string> responses;
    if (!stats_conn.ok() || !stats_conn->Exchange("STATS\n", 1, &responses).ok()) {
      run.result().checker.Fail("STATS failed");
      return "";
    }
    return responses[0];
  };
  const std::string before = stats();
  const size_t pool_size = pools[0].size();
  for (size_t position = 0; Clock::now() < deadline; ++position) {
    const SessionScript& session =
        pools[position % kConnections][(position / kConnections) % pool_size];
    Connection own;
    Connection* target = conn;
    if (session.own_connection) {
      auto opened = Connection::Open(port);
      if (!opened.ok()) {
        run.result().checker.Fail(opened.status().ToString());
        break;
      }
      own = std::move(*opened);
      target = &own;
    }
    // Session i of each pool is traced when i % 4 is 2 or 3, so both pools
    // and both parities of i (rewrite_hard alternates its problems by
    // parity) give traced and untraced sessions. The server's shared
    // caches see the untraced sessions too, so the replicas get them,
    // untimed.
    const bool traced = (position / kConnections) % 4 >= 2;
    run.RunSession(session, target, traced);
    if (!traced) run.Prime(session);
  }
  run.Finish(before, stats());
  if (!spans_path.empty() && !run.WriteSpans(spans_path)) {
    run.result().checker.Fail("cannot write " + spans_path);
  }
  return std::move(run.result());
}

}  // namespace aqv_e2e
