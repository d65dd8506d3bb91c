#include "frontend/session.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "cq/parser.h"
#include "eval/materialize.h"
#include "eval/relation.h"
#include "eval/value.h"

namespace aqv {

namespace {

std::string Trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(b, e - b + 1));
}

std::vector<std::string> SplitWords(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > b) out.push_back(s.substr(b, i - b));
  }
  return out;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

void AppendLine(std::string* out, std::string_view line) {
  if (!out->empty()) *out += '\n';
  out->append(line);
}

std::string CountNoun(size_t n, const char* singular, const char* plural) {
  return std::to_string(n) + " " + (n == 1 ? singular : plural);
}

std::string FormatCost(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", cost);
  return buf;
}

/// Renders a relation's rows sorted and deduplicated, one "(v1, v2)" line
/// each — the transcript-stable answer listing.
std::string SortedRows(const Relation& rel, const Catalog& catalog) {
  Relation sorted = rel;
  sorted.SortDedup();
  std::string text = sorted.ToString(catalog);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

CommandResult Fail(Status status) {
  CommandResult r;
  r.status = std::move(status);
  return r;
}

/// Every engine knob that can change a rewrite's output, rendered as a
/// deterministic comma-joined number list — the options component of the
/// plan-cache key. The oracle pointer is deliberately excluded: the oracle
/// is a pure cache, so which one (if any) is attached never changes the
/// payload.
std::string EngineOptionsDigest(const EngineOptions& o) {
  std::string d;
  auto add = [&](auto v) {
    d += std::to_string(v);
    d += ',';
  };
  add(o.containment.node_budget);
  add(o.containment.linearization_cap);
  add(o.lmss.candidates.node_budget);
  add(o.lmss.candidates.max_candidates);
  add(o.lmss.candidates.max_homs_per_view);
  add(o.lmss.max_rewriting_atoms);
  add(o.lmss.max_rewritings);
  add(o.lmss.max_subsets);
  add(o.lmss.extend_beyond_cover);
  add(o.lmss.allow_base_atoms);
  add(o.lmss.allow_trivial);
  add(o.bucket.max_combinations);
  add(o.bucket.require_equivalent);
  add(o.bucket.prune_subsumed);
  add(o.bucket.max_enrichments_per_combination);
  add(o.minicon.max_combinations);
  add(o.minicon.verify_candidates);
  add(o.minicon.prune_subsumed);
  return d;
}

CommandResult Say(std::string output) {
  CommandResult r;
  r.output = std::move(output);
  return r;
}

}  // namespace

std::string TranscriptLines(const CommandResult& result) {
  std::string out = result.output;
  if (!result.status.ok()) {
    AppendLine(&out, "error: " + result.status.ToString());
  }
  return out;
}

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      catalog_(std::make_unique<Catalog>()),
      base_(catalog_.get()) {
  // Resolved once, so engine calls and `show stats` see the same oracle.
  if (options_.engine.oracle == nullptr && options_.service != nullptr) {
    options_.engine.oracle = &options_.service->oracle();
  }
}

CommandResult Session::Execute(std::string_view line) {
  std::string trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '%' || trimmed[0] == '#') return {};
  ++commands_;
  size_t split = trimmed.find_first_of(" \t");
  std::string cmd = trimmed.substr(0, split);
  std::string rest =
      split == std::string::npos ? "" : Trim(trimmed.substr(split));
  if (cmd == "quit" || cmd == "exit") {
    CommandResult r;
    r.quit = true;
    return r;
  }
  if (cmd == "help") return CmdHelp();
  if (cmd == "view") return Journaled(trimmed, CmdView(rest));
  if (cmd == "query") return Journaled(trimmed, CmdQuery(rest));
  if (cmd == "fact") return Journaled(trimmed, CmdFact(rest));
  if (cmd == "load") return CmdLoad(rest);
  if (cmd == "save") return CmdSave(rest);
  if (cmd == "open") return CmdOpen(rest);
  if (cmd == "show") return CmdShow(rest);
  if (cmd == "rewrite") return CmdRewrite(rest);
  if (cmd == "answer") return CmdAnswer(rest);
  if (cmd == "explain") return CmdExplain();
  if (cmd == "reset") return CmdReset();
  return Fail(Status::InvalidArgument("unknown command '" + cmd +
                                      "' (try 'help')"));
}

std::vector<CommandResult> Session::ExecuteScript(std::string_view text) {
  std::vector<CommandResult> results;
  for (const std::string& line : SplitLines(text)) {
    results.push_back(Execute(line));
    if (results.back().quit) break;
  }
  return results;
}

CommandResult Session::CmdHelp() {
  return Say(
      "commands:\n"
      "  view <rule(s)>    add view definition(s), e.g. view v(X) :- e(X, "
      "Y).\n"
      "  query <rule(s)>   set the query (several rules = a union query)\n"
      "  fact <atom>.      add a ground fact, e.g. fact e(1, 2).\n"
      "  load <path>       run a script of commands from a file\n"
      "  show views|facts|engines|stats\n"
      "  rewrite [with <engine>]\n"
      "  answer [route <route>] [with <engine>]\n"
      "  explain           cost-rank every equivalent plan\n"
      "  save <dir>        snapshot the session into a database directory\n"
      "  open <dir>        load a database directory (snapshot + journal)\n"
      "  reset             drop views, facts, and the query (detaches the "
      "store)\n"
      "  help              this text\n"
      "  quit              end the session\n"
      "engines: lmss, bucket, minicon, ucq\n"
      "routes: direct, complete, inverse-rules, cost");
}

/// Snapshot of every predicate's kind, for rolling back the intensional
/// marks ParseProgram applies to rule heads when a command fails partway:
/// committed commands are all-or-nothing, and a failed one must not
/// strand a predicate as intensional (which would block later `fact`s).
class Session::KindSnapshot {
 public:
  explicit KindSnapshot(Catalog* catalog) : catalog_(catalog) {
    kinds_.reserve(catalog->num_predicates());
    for (PredId p = 0; p < catalog->num_predicates(); ++p) {
      kinds_.push_back(catalog->pred(p).kind);
    }
  }

  void Restore() {
    for (PredId p = 0; p < static_cast<PredId>(kinds_.size()); ++p) {
      catalog_->SetPredKind(p, kinds_[p]);
    }
    // Predicates the failed command introduced: body symbols are already
    // extensional; head symbols must not stay intensional.
    for (PredId p = static_cast<PredId>(kinds_.size());
         p < catalog_->num_predicates(); ++p) {
      catalog_->SetPredKind(p, PredKind::kExtensional);
    }
  }

 private:
  Catalog* catalog_;
  std::vector<PredKind> kinds_;
};

CommandResult Session::CmdView(const std::string& rest) {
  KindSnapshot snapshot(catalog_.get());
  auto rules = ParseProgram(rest, catalog_.get());
  if (!rules.ok()) {
    snapshot.Restore();
    return Fail(rules.status());
  }
  if (rules->empty()) {
    return Fail(Status::InvalidArgument(
        "usage: view <rule>, e.g. view v(X) :- e(X, Y)."));
  }
  // Pre-validate every rule so the command commits all-or-nothing (the
  // checks below are exactly ViewSet::AddRule's failure modes plus the
  // facts guard; parsing already Validate()d each rule).
  for (const Query& rule : *rules) {
    PredId pred = rule.head().pred;
    const std::string& name = catalog_->pred(pred).name;
    const Relation* facts = base_.Find(pred);
    if (facts != nullptr && !facts->empty()) {
      snapshot.Restore();
      return Fail(Status::InvalidArgument(
          "predicate '" + name +
          "' already has facts; cannot redefine it as a view"));
    }
    for (const Atom& a : rule.body()) {
      if (a.pred == pred) {
        snapshot.Restore();
        return Fail(Status::InvalidArgument("view '" + name +
                                            "' refers to itself"));
      }
    }
  }
  std::string out;
  for (Query& rule : *rules) {
    PredId pred = rule.head().pred;
    std::string name = catalog_->pred(pred).name;
    Status st = views_.AddRule(std::move(rule));
    if (!st.ok()) {
      snapshot.Restore();
      return Fail(std::move(st));
    }
    int rules_for_pred = 0;
    for (const View& v : views_.views()) {
      if (v.pred == pred) ++rules_for_pred;
    }
    if (rules_for_pred == 1) {
      AppendLine(&out, "added view " + name);
    } else {
      AppendLine(&out, "added rule " + std::to_string(rules_for_pred) +
                           " for view " + name + " (union source)");
    }
  }
  return Say(std::move(out));
}

CommandResult Session::CmdQuery(const std::string& rest) {
  KindSnapshot snapshot(catalog_.get());
  auto rules = ParseProgram(rest, catalog_.get());
  if (!rules.ok()) {
    snapshot.Restore();
    return Fail(rules.status());
  }
  if (rules->empty()) {
    return Fail(Status::InvalidArgument(
        "usage: query <rule>, e.g. query q(X) :- e(X, Y)."));
  }
  const Atom& head = rules->front().head();
  for (const Query& d : *rules) {
    if (d.head().pred != head.pred || d.head().arity() != head.arity()) {
      snapshot.Restore();
      return Fail(Status::InvalidArgument(
          "query disjuncts disagree on the head predicate"));
    }
  }
  const Relation* head_facts = base_.Find(head.pred);
  if (head_facts != nullptr && !head_facts->empty()) {
    snapshot.Restore();
    return Fail(Status::InvalidArgument(
        "predicate '" + catalog_->pred(head.pred).name +
        "' already has facts; cannot use it as the query head"));
  }
  UnionQuery q;
  q.disjuncts = std::move(*rules);
  std::string out;
  if (q.size() == 1) {
    out = "query set: " + q.disjuncts[0].ToString();
  } else {
    out = "query set (" + std::to_string(q.size()) + " disjuncts):";
    for (const Query& d : q.disjuncts) AppendLine(&out, "  " + d.ToString());
  }
  query_ = std::move(q);
  return Say(std::move(out));
}

CommandResult Session::CmdFact(const std::string& rest) {
  auto atom = ParseFact(rest, catalog_.get());
  if (!atom.ok()) return Fail(atom.status());
  std::vector<Value> row;
  row.reserve(atom->args.size());
  for (const Term& t : atom->args) {
    row.push_back(ValueOfConstant(*catalog_, t.constant()));
  }
  base_.Add(atom->pred, row);
  return Say("ok (" + CountNoun(base_.TotalTuples(), "fact", "facts") +
             " total)");
}

CommandResult Session::CmdLoad(const std::string& rest) {
  if (!options_.enable_load) {
    return Fail(Status::Unimplemented("load is disabled in this session"));
  }
  if (rest.empty()) {
    return Fail(Status::InvalidArgument("usage: load <path>"));
  }
  if (load_depth_ >= options_.max_load_depth) {
    return Fail(Status::ResourceExhausted(
        "load depth cap (" + std::to_string(options_.max_load_depth) +
        ") reached"));
  }
  std::ifstream in(rest);
  if (!in) return Fail(Status::NotFound("cannot open '" + rest + "'"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  uint64_t commands_before = commands_;
  ++load_depth_;
  std::vector<CommandResult> results = ExecuteScript(content);
  --load_depth_;
  std::string out;
  size_t errors = 0;
  bool quit = false;
  for (size_t i = 0; i < results.size(); ++i) {
    const CommandResult& r = results[i];
    if (!r.output.empty()) AppendLine(&out, r.output);
    if (!r.status.ok()) {
      ++errors;
      AppendLine(&out, rest + ":" + std::to_string(i + 1) +
                           ": error: " + r.status.ToString());
    }
    if (r.quit) quit = true;
  }
  uint64_t executed = commands_ - commands_before;
  AppendLine(&out, "loaded " + rest + " (" +
                       CountNoun(executed, "command", "commands") + ", " +
                       CountNoun(errors, "error", "errors") + ")");
  CommandResult result = Say(std::move(out));
  result.quit = quit;
  if (errors > 0) {
    result.status = Status::InvalidArgument(
        "script '" + rest + "' had " + CountNoun(errors, "error", "errors"));
  }
  return result;
}

CommandResult Session::CmdShow(const std::string& rest) {
  if (rest == "views") {
    if (views_.empty()) return Say("(none)");
    std::string out;
    for (const View& v : views_.views()) {
      AppendLine(&out, v.definition.ToString());
    }
    return Say(std::move(out));
  }
  if (rest == "facts") {
    std::string out;
    for (PredId p : base_.Predicates()) {
      const Relation* rel = base_.Find(p);
      if (rel == nullptr || rel->empty()) continue;
      AppendLine(&out, catalog_->pred(p).name + ": " +
                           CountNoun(rel->size(), "tuple", "tuples"));
    }
    if (out.empty()) return Say("(none)");
    return Say(std::move(out));
  }
  if (rest == "engines") {
    std::string out;
    for (const std::string& name : EngineNames()) {
      AppendLine(&out, name + (name == options_.default_engine
                                   ? " (default)"
                                   : ""));
    }
    return Say(std::move(out));
  }
  if (rest == "stats") {
    std::string out = "session: commands=" + std::to_string(commands_) +
                      " views=" + std::to_string(views_.size()) +
                      " facts=" + std::to_string(base_.TotalTuples()) +
                      " query=" +
                      (query_.has_value()
                           ? std::to_string(query_->size()) + " disjunct(s)"
                           : "(none)");
    AppendLine(&out,
               "last rewrite: candidates=" +
                   std::to_string(last_rewrite_.num_candidates) +
                   " combinations=" +
                   std::to_string(last_rewrite_.combinations) +
                   " checks=" + std::to_string(last_rewrite_.checks));
    const ContainmentOracle* oracle = options_.engine.oracle;
    if (oracle != nullptr) {
      OracleStats os = oracle->stats();
      char rate[16];
      std::snprintf(rate, sizeof(rate), "%.2f", os.hit_rate());
      AppendLine(&out, "oracle: hits=" + std::to_string(os.hits) +
                           " misses=" + std::to_string(os.misses) +
                           " inserts=" + std::to_string(os.inserts) +
                           " hit_rate=" + rate);
    }
    if (options_.plan_cache != nullptr) {
      PlanCacheStats ps = options_.plan_cache->stats();
      char rate[16];
      std::snprintf(rate, sizeof(rate), "%.2f", ps.hit_rate());
      AppendLine(&out, "plan_cache: hits=" + std::to_string(ps.hits) +
                           " misses=" + std::to_string(ps.misses) +
                           " inserts=" + std::to_string(ps.inserts) +
                           " size=" +
                           std::to_string(options_.plan_cache->size()) +
                           " hit_rate=" + rate);
    }
    if (options_.service != nullptr) {
      ServiceStats ss = options_.service->lifetime_stats();
      AppendLine(&out, "service: requests=" + std::to_string(ss.requests) +
                           " ok=" + std::to_string(ss.ok) +
                           " failed=" + std::to_string(ss.failed) +
                           " workers=" + std::to_string(ss.num_workers) +
                           " shards=" + std::to_string(ss.oracle_shards));
    }
    return Say(std::move(out));
  }
  return Fail(Status::InvalidArgument("unknown show target '" + rest +
                                      "' (views|facts|engines|stats)"));
}

Status Session::Ready(bool needs_views) const {
  if (!query_.has_value()) {
    return Status::InvalidArgument("set a query first");
  }
  if (needs_views && views_.empty()) {
    return Status::InvalidArgument("add at least one view first");
  }
  return Status::OK();
}

Result<RewriteResponse> Session::RunRewrite(const std::string& engine_name) {
  RewriteRequest request;
  request.query = *query_;
  request.views = &views_;
  request.options = options_.engine;
  return RunEngine(engine_name, request);
}

Result<AnswerResponse> Session::RunAnswer(AnswerRoute route,
                                          const std::string& engine_name) {
  AnswerRequest request;
  request.query = *query_;
  request.views = &views_;
  request.base = &base_;
  request.engine = engine_name;
  request.route = route;
  request.options = options_.engine;
  request.eval = options_.eval;
  request.planner = options_.planner;
  return AnswerQuery(request);
}

CommandResult Session::CmdRewrite(const std::string& rest) {
  std::vector<std::string> words = SplitWords(rest);
  std::string engine = options_.default_engine;
  if (words.size() == 2 && words[0] == "with") {
    engine = words[1];
  } else if (!words.empty()) {
    return Fail(Status::InvalidArgument("usage: rewrite [with <engine>]"));
  }
  Status ready = Ready(/*needs_views=*/true);
  if (!ready.ok()) return Fail(std::move(ready));
  // Shared plan cache: the key is the complete problem statement (engine,
  // options digest, rendered query and views), so a hit is byte-identical
  // to what recomputation would print and schema mutations miss naturally.
  std::string cache_key;
  if (options_.plan_cache != nullptr) {
    std::string query_text;
    for (const Query& d : query_->disjuncts) {
      AppendLine(&query_text, d.ToString());
    }
    std::string views_text;
    for (const View& v : views_.views()) {
      AppendLine(&views_text, v.definition.ToString());
    }
    cache_key = RewritePlanCache::MakeKey(
        engine, EngineOptionsDigest(options_.engine), query_text, views_text);
    if (std::optional<RewritePlanCache::Plan> plan =
            options_.plan_cache->Lookup(cache_key)) {
      last_rewrite_ = plan->stats;
      return Say(std::move(plan->rendered));
    }
  }
  auto response = RunRewrite(engine);
  if (!response.ok()) return Fail(response.status());
  last_rewrite_ = response->stats;
  std::string out = "engine " + response->engine + ": equivalent=" +
                    (response->equivalent_exists ? "yes" : "no") +
                    ", rewritings=" +
                    std::to_string(response->rewritings.size());
  for (const Query& rw : response->rewritings.disjuncts) {
    AppendLine(&out, "  " + rw.ToString());
  }
  if (options_.plan_cache != nullptr) {
    options_.plan_cache->Insert(cache_key,
                                RewritePlanCache::Plan{out, last_rewrite_});
  }
  return Say(std::move(out));
}

CommandResult Session::CmdAnswer(const std::string& rest) {
  std::vector<std::string> words = SplitWords(rest);
  std::string engine = options_.default_engine;
  AnswerRoute route = options_.default_route;
  for (size_t i = 0; i < words.size(); i += 2) {
    if (i + 1 >= words.size()) {
      return Fail(Status::InvalidArgument(
          "usage: answer [route <route>] [with <engine>]"));
    }
    if (words[i] == "route") {
      auto parsed = AnswerRouteByName(words[i + 1]);
      if (!parsed.ok()) return Fail(parsed.status());
      route = *parsed;
    } else if (words[i] == "with") {
      engine = words[i + 1];
    } else {
      return Fail(Status::InvalidArgument(
          "usage: answer [route <route>] [with <engine>]"));
    }
  }
  Status ready = Ready(/*needs_views=*/route != AnswerRoute::kDirect);
  if (!ready.ok()) return Fail(std::move(ready));
  auto response = RunAnswer(route, engine);
  if (!response.ok()) return Fail(response.status());
  last_rewrite_ = response->stats.rewrite;
  std::string out = "route " + std::string(AnswerRouteName(response->route));
  if (!response->engine.empty()) {
    out += " (engine " + response->engine + ")";
  }
  out += ": " + CountNoun(response->result.size(), "answer", "answers") +
         (response->exact ? " (exact)" : " (certain)");
  std::string rows = SortedRows(response->result, *catalog_);
  if (!rows.empty()) AppendLine(&out, rows);
  return Say(std::move(out));
}

CommandResult Session::CmdExplain() {
  Status ready = Ready(/*needs_views=*/true);
  if (!ready.ok()) return Fail(std::move(ready));
  if (query_->size() != 1) {
    return Fail(Status::InvalidArgument(
        "explain expects a single-CQ query (unions have no cost plan)"));
  }
  auto extents = MaterializeViews(views_, base_, options_.eval);
  if (!extents.ok()) return Fail(extents.status());
  ExtentStats view_stats = ExtentStats::FromDatabase(*extents);
  ExtentStats base_stats = ExtentStats::FromDatabase(base_);
  PlannerOptions popts = options_.planner;
  popts.engine = options_.engine;
  auto plans = ChooseBestPlan(query_->disjuncts[0], views_, view_stats,
                              base_stats, popts);
  if (!plans.ok()) return Fail(plans.status());
  last_rewrite_ = plans->stats;
  if (plans->plans.empty() || plans->best < 0) {
    return Say("no executable plan");
  }
  std::string out =
      "plans (" + std::to_string(plans->plans.size()) + "):";
  for (size_t i = 0; i < plans->plans.size(); ++i) {
    const PlanChoice& p = plans->plans[i];
    AppendLine(&out, "  [" + std::to_string(i) + "] engine=" + p.engine +
                         " cost=" + FormatCost(p.estimated_cost) + " " +
                         (p.complete ? "complete" : "partial") + ": " +
                         p.rewriting.ToString());
  }
  AppendLine(&out, "chosen: [" + std::to_string(plans->best) + "] engine=" +
                       plans->plans[plans->best].engine);
  return Say(std::move(out));
}

CommandResult Session::CmdReset() {
  // Journal the reset before detaching, so recovery of the directory
  // replays it (the last record any journal can hold — nothing journals
  // after the detach below).
  Status journal = Status::OK();
  bool was_attached = store_ != nullptr;
  if (was_attached && !replaying_journal_) {
    journal = store_->Append("reset");
  }
  // The old catalog may die with the command: oracle entries are keyed by
  // catalog-independent global encodings (containment/oracle.h), so no
  // shared cache holds a pointer into it. Keep it alive only until base_
  // (which references it) is replaced below.
  std::unique_ptr<Catalog> old_catalog = std::move(catalog_);
  catalog_ = std::make_unique<Catalog>();
  views_ = ViewSet();
  base_ = Database(catalog_.get());
  old_catalog.reset();
  query_.reset();
  last_rewrite_ = RewriteStats{};
  if (was_attached && !replaying_journal_) {
    // Release every store resource: the journal descriptor and directory
    // lock close here; mmap'd extents unmapped when base_ was replaced
    // above. The catalog is retired (oracle contract) but holds no fds.
    store_.reset();
  }
  // One fixed payload whether or not a store detached: the differential
  // mirror (never attached) must byte-match a persisted server session.
  CommandResult result = Say("session reset");
  if (!journal.ok()) result.status = std::move(journal);
  return result;
}

CommandResult Session::Journaled(const std::string& line,
                                 CommandResult result) {
  if (result.ok() && store_ != nullptr && !replaying_journal_) {
    Status st = store_->Append(line);
    if (!st.ok()) result.status = std::move(st);
  }
  return result;
}

SnapshotInput Session::RenderSnapshot() const {
  SnapshotInput input;
  input.catalog = catalog_.get();
  input.base = &base_;
  for (const View& v : views_.views()) {
    input.view_rules.push_back(v.definition.ToString());
  }
  if (query_.has_value()) {
    for (const Query& d : query_->disjuncts) {
      input.query_rules.push_back(d.ToString());
    }
  }
  return input;
}

std::string Session::ProblemSummary() const {
  return CountNoun(static_cast<size_t>(views_.size()), "view", "views") +
         ", " + CountNoun(base_.TotalTuples(), "fact", "facts") + ", query " +
         (query_.has_value() ? "set" : "unset");
}

CommandResult Session::CmdSave(const std::string& rest) {
  if (!options_.enable_persist) {
    return Fail(Status::Unimplemented("save/open are disabled in this "
                                      "session"));
  }
  if (rest.empty() || rest.find_first_of(" \t") != std::string::npos) {
    return Fail(Status::InvalidArgument("usage: save <dir>"));
  }
  if (store_ == nullptr || store_->dir() != rest) {
    // Release any current attachment before locking the target: flock
    // treats two descriptors of one process as rivals, so a same-dir
    // re-attach must go through the existing store (the branch above).
    store_.reset();
    auto attached = SessionStore::Attach(rest, options_.storage);
    if (!attached.ok()) return Fail(attached.status());
    store_ = std::move(*attached);
  }
  Status st = store_->Snapshot(RenderSnapshot());
  if (!st.ok()) {
    // A failed snapshot never damages the previous commit, but this
    // session can no longer claim the directory reflects it — detach.
    store_.reset();
    return Fail(std::move(st));
  }
  return Say("saved: " + ProblemSummary());
}

CommandResult Session::CmdOpen(const std::string& rest) {
  if (!options_.enable_persist) {
    return Fail(Status::Unimplemented("save/open are disabled in this "
                                      "session"));
  }
  if (rest.empty() || rest.find_first_of(" \t") != std::string::npos) {
    return Fail(Status::InvalidArgument("usage: open <dir>"));
  }
  // Recover into locals first: a failed open must leave the session
  // exactly as it was.
  std::unique_ptr<SessionStore> incoming;
  RecoveredState state;
  if (store_ != nullptr && store_->dir() == rest) {
    // Re-opening the attached directory re-reads disk through the held
    // lock (no flock self-conflict, no fd churn).
    auto recovered = store_->Recover();
    if (!recovered.ok()) return Fail(recovered.status());
    state = std::move(*recovered);
  } else {
    auto attached = SessionStore::Attach(rest, options_.storage);
    if (!attached.ok()) return Fail(attached.status());
    auto recovered = (*attached)->Recover();
    if (!recovered.ok()) return Fail(recovered.status());
    incoming = std::move(*attached);
    state = std::move(*recovered);
  }
  // Stage the parsed problem against the recovered catalog before
  // touching session state.
  ViewSet views;
  for (const std::string& rule_text : state.view_rules) {
    auto rules = ParseProgram(rule_text, state.catalog.get());
    if (!rules.ok() || rules->size() != 1) {
      return Fail(Status::Internal("stored view rule does not parse: '" +
                                   rule_text + "'"));
    }
    Status st = views.AddRule(std::move(rules->front()));
    if (!st.ok()) return Fail(std::move(st));
  }
  std::optional<UnionQuery> query;
  if (!state.query_rules.empty()) {
    std::string joined;
    for (const std::string& rule_text : state.query_rules) {
      joined += rule_text + " ";
    }
    auto rules = ParseProgram(joined, state.catalog.get());
    if (!rules.ok()) {
      return Fail(Status::Internal("stored query does not parse: '" + joined +
                                   "'"));
    }
    UnionQuery q;
    q.disjuncts = std::move(*rules);
    query = std::move(q);
  }
  // Commit: adopt the recovered problem and replay the journal tail
  // through the normal dispatcher with re-journaling suppressed. The old
  // catalog dies here — shared caches key by global encodings, not
  // catalog pointers — but must outlive base_'s replacement below.
  if (incoming != nullptr) store_ = std::move(incoming);
  std::unique_ptr<Catalog> old_catalog = std::move(catalog_);
  catalog_ = std::move(state.catalog);
  views_ = std::move(views);
  base_ = std::move(state.base);
  query_ = std::move(query);
  last_rewrite_ = RewriteStats{};
  size_t replay_errors = 0;
  replaying_journal_ = true;
  for (const std::string& command : state.journal_commands) {
    if (!Execute(command).ok()) ++replay_errors;
  }
  replaying_journal_ = false;
  CommandResult result =
      Say("opened: " + ProblemSummary() + " (journal: " +
          CountNoun(state.journal_commands.size(), "command", "commands") +
          ")");
  if (replay_errors > 0) {
    result.status = Status::Internal(
        "journal replay had " + CountNoun(replay_errors, "error", "errors"));
  }
  return result;
}

}  // namespace aqv
