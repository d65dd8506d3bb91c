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

/// The engine `rewrite` and `answer` run without `with <engine>`.
constexpr char kDefaultEngine[] = "minicon";
/// What a malformed `rewrite` answers (Execute and AnswersFromMemo parse
/// alike).
constexpr char kRewriteUsage[] = "usage: rewrite [with <engine>]";
/// The route `answer` takes without `route <route>`.
constexpr AnswerRoute kDefaultRoute = AnswerRoute::kCompleteRewriting;
/// Nested `load` depth cap (a script loading itself must terminate).
constexpr int kMaxLoadDepth = 8;

std::string_view Trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
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
/// each — the transcript-stable answer listing. Every answering route
/// returns its relation sorted already.
std::string SortedRows(const Relation& rel, const Catalog& catalog) {
  if (!rel.sorted()) {
    Relation sorted = rel;
    sorted.SortDedup();
    return SortedRows(sorted, catalog);
  }
  std::string text = rel.ToString(catalog);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
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
  add(o.lmss.allow_base_atoms);
  add(o.lmss.allow_trivial);
  add(o.bucket.max_combinations);
  add(o.minicon.max_combinations);
  return d;
}

CommandResult Say(std::string output) {
  CommandResult r;
  r.output = std::move(output);
  return r;
}

bool HasFacts(const Database& base, PredId pred) {
  const Relation* facts = base.Find(pred);
  return facts != nullptr && !facts->empty();
}

/// Snapshot of every predicate's kind, for rolling back the intensional
/// marks ParseProgram applies to rule heads when a command fails partway:
/// committed commands are all-or-nothing, and a failed one must not
/// strand a predicate as intensional (which would block later `fact`s).
class KindSnapshot {
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

/// Parses the `with <engine>` / `route <route>` word pairs of `rewrite`
/// and `answer` into `*engine` and `*route`. A null `route` accepts only
/// a single `with` pair (the `rewrite` syntax).
Status ParseEngineRoute(const std::string& rest, const char* usage,
                        std::string* engine, AnswerRoute* route) {
  std::vector<std::string> words = SplitWords(rest);
  if (route == nullptr && words.size() > 2) {
    return Status::InvalidArgument(usage);
  }
  for (size_t i = 0; i < words.size(); i += 2) {
    if (i + 1 >= words.size()) return Status::InvalidArgument(usage);
    if (words[i] == "with") {
      *engine = words[i + 1];
    } else if (words[i] == "route" && route != nullptr) {
      AQV_ASSIGN_OR_RETURN(*route, AnswerRouteByName(words[i + 1]));
    } else {
      return Status::InvalidArgument(usage);
    }
  }
  return Status::OK();
}

}  // namespace

std::string TranscriptLines(const CommandResult& result) {
  std::string out = result.output;
  if (!result.status.ok()) {
    AppendLine(&out, "error: " + result.status.ToString());
  }
  return out;
}

std::string RenderWireResponse(const CommandResult& result) {
  std::string response = result.output;
  if (!response.empty()) response += '\n';
  if (result.status.ok()) {
    response += "ok\n";
  } else {
    response += "err " + result.status.ToString() + "\n";
  }
  return response;
}

const std::vector<Session::Command>& Session::Commands() {
  using M = MirrorMode;
  // word, handler, refused for read-only accounts, journaled, mirror
  // treatment, help line. `show stats` precedes `show`: the first match
  // wins.
  static const std::vector<Command> table = {
      {"view", &Session::CmdView, true, true, M::kCompare,
       "view <rule(s)>    add view definition(s), e.g. view v(X) :- "
       "e(X, Y)."},
      {"query", &Session::CmdQuery, true, true, M::kCompare,
       "query <rule(s)>   set the query (several rules = a union query)"},
      {"fact", &Session::CmdFact, true, true, M::kCompare,
       "fact <atom>.      add a ground fact, e.g. fact e(1, 2)."},
      {"load", &Session::CmdLoad, true, false, M::kExecute,
       "load <path>       run a script of commands from a file"},
      {"show stats", &Session::CmdStats, false, false, M::kExecute, ""},
      {"show", &Session::CmdShow, false, false, M::kCompare,
       "show views|facts|engines|stats"},
      {"STATS", &Session::CmdStats, false, false, M::kExecute, ""},
      {"rewrite", &Session::CmdRewrite, false, false, M::kCompare,
       "rewrite [with <engine>]"},
      {"answer", &Session::CmdAnswer, false, false, M::kCompare,
       "answer [route <route>] [with <engine>]"},
      {"explain", &Session::CmdExplain, false, false, M::kCompare,
       "explain           cost-rank every equivalent plan"},
      {"save", &Session::CmdSave, true, false, M::kSkip,
       "save <dir>        snapshot the session into a database directory"},
      {"open", &Session::CmdOpen, true, false, M::kSkip,
       "open <dir>        load a database directory (snapshot + journal)"},
      {"reset", &Session::CmdReset, true, false, M::kCompare,
       "reset             drop views, facts, and the query (detaches the "
       "store)"},
      {"help", &Session::CmdHelp, false, false, M::kCompare,
       "help              this text"},
      {"quit", &Session::CmdQuit, false, false, M::kCompare,
       "quit              end the session"},
      {"exit", &Session::CmdQuit, false, false, M::kCompare, ""},
  };
  return table;
}

Session::CommandLine Session::ParseCommand(std::string_view line) {
  CommandLine parsed;
  parsed.text = Trim(line);
  if (parsed.text.empty() || parsed.text[0] == '%' || parsed.text[0] == '#') {
    return parsed;
  }
  size_t split = parsed.text.find_first_of(" \t");
  parsed.word = parsed.text.substr(0, split);
  if (split != std::string_view::npos) {
    parsed.rest = Trim(parsed.text.substr(split));
  }
  for (const Command& row : Commands()) {
    size_t space = row.word.find(' ');
    bool match = space == std::string_view::npos
                     ? row.word == parsed.word
                     : row.word.substr(0, space) == parsed.word &&
                           row.word.substr(space + 1) == parsed.rest;
    if (match) {
      parsed.command = &row;
      break;
    }
  }
  return parsed;
}

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      catalog_(std::make_unique<Catalog>()),
      base_(catalog_.get()) {}

CommandResult Session::Execute(std::string_view line) {
  CommandLine parsed = ParseCommand(line);
  if (parsed.word.empty()) return {};
  ++commands_;
  if (parsed.command == nullptr) {
    return Status::InvalidArgument("unknown command '" +
                                   std::string(parsed.word) + "' (try 'help')");
  }
  // The one invalidation point of the memo and the extents: the rows that
  // can change the problem (a replayed journal passes here too).
  if (parsed.command->refused_read_only) {
    rewrite_memo_.clear();
    extents_.reset();
  }
  CommandResult result =
      (this->*parsed.command->handler)(std::string(parsed.rest));
  // Autosave-on-mutation. A journal failure turns the result into an
  // error: the mutation applied in memory but is not durable.
  if (parsed.command->journaled && result.ok() && store_ != nullptr &&
      !replaying_journal_) {
    Status st = store_->Append(std::string(parsed.text));
    if (!st.ok()) result.status = std::move(st);
  }
  return result;
}

std::vector<CommandResult> Session::ExecuteScript(std::string_view text) {
  std::vector<CommandResult> results;
  while (true) {
    size_t nl = text.find('\n');
    results.push_back(Execute(text.substr(0, nl)));
    if (results.back().quit || nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  return results;
}

bool Session::AnswersFromMemo(std::string_view line) const {
  if (rewrite_memo_.empty()) return false;
  std::optional<std::string> engine = RewriteEngineOf(line);
  return engine.has_value() && FindMemo(*engine) != nullptr;
}

std::optional<std::string> Session::RewriteEngineOf(std::string_view line) {
  CommandLine parsed = ParseCommand(line);
  if (parsed.command == nullptr ||
      parsed.command->handler != &Session::CmdRewrite) {
    return std::nullopt;
  }
  std::string engine = kDefaultEngine;
  if (!ParseEngineRoute(std::string(parsed.rest), kRewriteUsage, &engine,
                        /*route=*/nullptr)
           .ok()) {
    return std::nullopt;
  }
  return engine;
}

std::string Session::RenderRewrite(const RewriteResponse& response) {
  std::string out = "engine " + response.engine + ": equivalent=" +
                    (response.equivalent_exists ? "yes" : "no") +
                    ", rewritings=" +
                    std::to_string(response.rewritings.size());
  for (const Query& rw : response.rewritings.disjuncts) {
    AppendLine(&out, "  " + rw.ToString());
  }
  return out;
}

const RewritePlanCache::Plan* Session::FindMemo(
    std::string_view engine) const {
  for (const MemoEntry& entry : rewrite_memo_) {
    if (entry.engine == engine) return &entry.plan;
  }
  return nullptr;
}

Result<const Database*> Session::Extents() {
  if (!extents_.has_value()) {
    AQV_ASSIGN_OR_RETURN(extents_, MaterializeViews(views_, base_));
  }
  return &*extents_;
}

CommandResult Session::CmdHelp(const std::string&) {
  std::string out = "commands:";
  for (const Command& row : Commands()) {
    if (!row.help.empty()) AppendLine(&out, "  " + std::string(row.help));
  }
  AppendLine(&out, "engines: lmss, bucket, minicon, ucq");
  AppendLine(&out, "routes: direct, complete, inverse-rules, cost");
  return Say(std::move(out));
}

CommandResult Session::CmdQuit(const std::string&) {
  CommandResult r;
  r.quit = true;
  return r;
}

CommandResult Session::DefineRules(
    const std::string& rest, const char* usage,
    CommandResult (Session::*commit)(std::vector<Query> rules)) {
  KindSnapshot snapshot(catalog_.get());
  auto rules = ParseProgram(rest, catalog_.get());
  CommandResult result = Status::InvalidArgument(usage);
  if (!rules.ok()) {
    result = rules.status();
  } else if (!rules->empty()) {
    result = (this->*commit)(std::move(*rules));
  }
  if (!result.ok()) snapshot.Restore();
  return result;
}

CommandResult Session::CmdView(const std::string& rest) {
  return DefineRules(rest, "usage: view <rule>, e.g. view v(X) :- e(X, Y).",
                     &Session::AddViews);
}

CommandResult Session::CmdQuery(const std::string& rest) {
  return DefineRules(rest, "usage: query <rule>, e.g. query q(X) :- e(X, Y).",
                     &Session::SetQuery);
}

CommandResult Session::AddViews(std::vector<Query> rules) {
  // Pre-validate every rule so the command commits all-or-nothing (the
  // checks below are exactly ViewSet::AddRule's failure modes plus the
  // facts guard; parsing already Validate()d each rule).
  for (const Query& rule : rules) {
    PredId pred = rule.head().pred;
    const std::string& name = catalog_->pred(pred).name;
    if (HasFacts(base_, pred)) {
      return Status::InvalidArgument(
          "predicate '" + name +
          "' already has facts; cannot redefine it as a view");
    }
    for (const Atom& a : rule.body()) {
      if (a.pred == pred) {
        return Status::InvalidArgument("view '" + name +
                                       "' refers to itself");
      }
    }
  }
  std::string out;
  for (Query& rule : rules) {
    PredId pred = rule.head().pred;
    std::string name = catalog_->pred(pred).name;
    AQV_RETURN_NOT_OK(views_.AddRule(std::move(rule)));
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

CommandResult Session::SetQuery(std::vector<Query> rules) {
  const Atom& head = rules.front().head();
  for (const Query& d : rules) {
    if (d.head().pred != head.pred || d.head().arity() != head.arity()) {
      return Status::InvalidArgument(
          "query disjuncts disagree on the head predicate");
    }
  }
  if (HasFacts(base_, head.pred)) {
    return Status::InvalidArgument(
        "predicate '" + catalog_->pred(head.pred).name +
        "' already has facts; cannot use it as the query head");
  }
  UnionQuery q{std::move(rules)};
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
  AQV_ASSIGN_OR_RETURN(Atom atom, ParseFact(rest, catalog_.get()));
  std::vector<Value> row;
  row.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    row.push_back(ValueOfConstant(*catalog_, t.constant()));
  }
  base_.Add(atom.pred, row);
  return Say("ok (" + CountNoun(base_.TotalTuples(), "fact", "facts") +
             " total)");
}

CommandResult Session::CmdLoad(const std::string& rest) {
  if (!options_.enable_load) {
    return Status::Unimplemented("load is disabled in this session");
  }
  if (rest.empty()) return Status::InvalidArgument("usage: load <path>");
  if (load_depth_ >= kMaxLoadDepth) {
    return Status::ResourceExhausted(
        "load depth cap (" + std::to_string(kMaxLoadDepth) + ") reached");
  }
  std::ifstream in(rest);
  if (!in) return Status::NotFound("cannot open '" + rest + "'");
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
  std::string out;
  if (rest == "views") {
    for (const View& v : views_.views()) {
      AppendLine(&out, v.definition.ToString());
    }
  } else if (rest == "facts") {
    for (PredId p : base_.Predicates()) {
      const Relation* rel = base_.Find(p);
      if (rel == nullptr || rel->empty()) continue;
      AppendLine(&out, catalog_->pred(p).name + ": " +
                           CountNoun(rel->size(), "tuple", "tuples"));
    }
  } else if (rest == "engines") {
    for (const std::string& name : EngineNames()) {
      AppendLine(&out, name + (name == kDefaultEngine ? " (default)" : ""));
    }
  } else {
    return Status::InvalidArgument("unknown show target '" + rest +
                                   "' (views|facts|engines|stats)");
  }
  return Say(out.empty() ? "(none)" : std::move(out));
}

CommandResult Session::CmdStats(const std::string&) {
  std::string out = "session: commands=" + std::to_string(commands_) +
                    " views=" + std::to_string(views_.size()) +
                    " facts=" + std::to_string(base_.TotalTuples()) +
                    " query=" +
                    (query_.has_value()
                         ? std::to_string(query_->size()) + " disjunct(s)"
                         : "(none)");
  AppendLine(&out, "last rewrite: candidates=" +
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
                         " workers=" + std::to_string(ss.num_workers));
  }
  return Say(std::move(out));
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

CommandResult Session::CmdRewrite(const std::string& rest) {
  std::string engine = kDefaultEngine;
  AQV_RETURN_NOT_OK(
      ParseEngineRoute(rest, kRewriteUsage, &engine, /*route=*/nullptr));
  AQV_RETURN_NOT_OK(Ready(/*needs_views=*/true));
  // Resolved before the caches: an unknown engine is not a lookup.
  AQV_ASSIGN_OR_RETURN(std::unique_ptr<RewritingEngine> runner,
                       MakeEngine(engine));
  // The memo holds this problem's payloads: a repeat renders no key.
  if (const RewritePlanCache::Plan* memo = FindMemo(engine)) {
    if (options_.plan_cache != nullptr) options_.plan_cache->CountHit();
    last_rewrite_ = memo->stats;
    return Say(memo->rendered);
  }
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
      rewrite_memo_.push_back({engine, *plan});
      return Say(std::move(plan->rendered));
    }
  }
  RewriteRequest request;
  request.query = *query_;
  request.views = &views_;
  request.options = options_.engine;
  AQV_ASSIGN_OR_RETURN(RewriteResponse response, runner->Rewrite(request));
  last_rewrite_ = response.stats;
  std::string out = RenderRewrite(response);
  RewritePlanCache::Plan plan{out, last_rewrite_};
  if (options_.plan_cache != nullptr) {
    options_.plan_cache->Insert(cache_key, plan);
  }
  rewrite_memo_.push_back({engine, std::move(plan)});
  return Say(std::move(out));
}

CommandResult Session::CmdAnswer(const std::string& rest) {
  std::string engine = kDefaultEngine;
  AnswerRoute route = kDefaultRoute;
  AQV_RETURN_NOT_OK(ParseEngineRoute(
      rest, "usage: answer [route <route>] [with <engine>]", &engine, &route));
  AQV_RETURN_NOT_OK(Ready(/*needs_views=*/route != AnswerRoute::kDirect));
  AnswerRequest request;
  request.query = *query_;
  request.views = &views_;
  request.base = &base_;
  request.engine = engine;
  request.route = route;
  request.options = options_.engine;
  if (route != AnswerRoute::kDirect) {
    AQV_RETURN_NOT_OK(ValidateAnswerRequest(request));
    AQV_ASSIGN_OR_RETURN(request.extents, Extents());
  }
  AQV_ASSIGN_OR_RETURN(AnswerResponse response, AnswerQuery(request));
  last_rewrite_ = response.stats.rewrite;
  std::string out = "route " + std::string(AnswerRouteName(response.route));
  if (!response.engine.empty()) out += " (engine " + response.engine + ")";
  out += ": " + CountNoun(response.result.size(), "answer", "answers") +
         (response.exact ? " (exact)" : " (certain)");
  std::string rows = SortedRows(response.result, *catalog_);
  if (!rows.empty()) AppendLine(&out, rows);
  return Say(std::move(out));
}

CommandResult Session::CmdExplain(const std::string&) {
  AQV_RETURN_NOT_OK(Ready(/*needs_views=*/true));
  if (query_->size() != 1) {
    return Status::InvalidArgument(
        "explain expects a single-CQ query (unions have no cost plan)");
  }
  AQV_ASSIGN_OR_RETURN(const Database* extents, Extents());
  PlannerOptions popts;
  popts.engine = options_.engine;
  AQV_ASSIGN_OR_RETURN(
      PlannerResult plans,
      ChooseBestPlan(query_->disjuncts[0], views_,
                     ExtentStats::FromDatabase(*extents),
                     ExtentStats::FromDatabase(base_), popts));
  last_rewrite_ = plans.stats;
  if (plans.plans.empty() || plans.best < 0) return Say("no executable plan");
  std::string out = "plans (" + std::to_string(plans.plans.size()) + "):";
  for (size_t i = 0; i < plans.plans.size(); ++i) {
    const PlanChoice& p = plans.plans[i];
    AppendLine(&out, "  [" + std::to_string(i) + "] engine=" + p.engine +
                         " cost=" + FormatCost(p.estimated_cost) + " " +
                         (p.complete ? "complete" : "partial") + ": " +
                         p.rewriting.ToString());
  }
  AppendLine(&out, "chosen: [" + std::to_string(plans.best) + "] engine=" +
                       plans.plans[plans.best].engine);
  return Say(std::move(out));
}

CommandResult Session::CmdReset(const std::string&) {
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

Status Session::CheckPersistTarget(const std::string& rest,
                                   const char* usage) const {
  if (!options_.enable_persist) {
    return Status::Unimplemented("save/open are disabled in this session");
  }
  if (rest.empty() || rest.find_first_of(" \t") != std::string::npos) {
    return Status::InvalidArgument(usage);
  }
  return Status::OK();
}

CommandResult Session::CmdSave(const std::string& rest) {
  AQV_RETURN_NOT_OK(CheckPersistTarget(rest, "usage: save <dir>"));
  if (store_ == nullptr || store_->dir() != rest) {
    // Release any current attachment before locking the target: flock
    // treats two descriptors of one process as rivals, so a same-dir
    // re-attach must go through the existing store (the branch above).
    store_.reset();
    AQV_ASSIGN_OR_RETURN(store_, SessionStore::Attach(rest, options_.storage));
  }
  Status st = store_->Snapshot(RenderSnapshot());
  if (!st.ok()) {
    // A failed snapshot never damages the previous commit, but this
    // session can no longer claim the directory reflects it — detach.
    store_.reset();
    return st;
  }
  return Say("saved: " + ProblemSummary());
}

CommandResult Session::CmdOpen(const std::string& rest) {
  AQV_RETURN_NOT_OK(CheckPersistTarget(rest, "usage: open <dir>"));
  // Recover into locals first: a failed open must leave the session
  // exactly as it was.
  std::unique_ptr<SessionStore> incoming;
  RecoveredState state;
  if (store_ != nullptr && store_->dir() == rest) {
    // Re-opening the attached directory re-reads disk through the held
    // lock (no flock self-conflict, no fd churn).
    AQV_ASSIGN_OR_RETURN(state, store_->Recover());
  } else {
    AQV_ASSIGN_OR_RETURN(incoming,
                         SessionStore::Attach(rest, options_.storage));
    AQV_ASSIGN_OR_RETURN(state, incoming->Recover());
  }
  // Stage the parsed problem against the recovered catalog before
  // touching session state.
  ViewSet views;
  for (const std::string& rule_text : state.view_rules) {
    auto rules = ParseProgram(rule_text, state.catalog.get());
    if (!rules.ok() || rules->size() != 1) {
      return Status::Internal("stored view rule does not parse: '" +
                              rule_text + "'");
    }
    AQV_RETURN_NOT_OK(views.AddRule(std::move(rules->front())));
  }
  std::optional<UnionQuery> query;
  if (!state.query_rules.empty()) {
    std::string joined;
    for (const std::string& rule_text : state.query_rules) {
      joined += rule_text + " ";
    }
    auto rules = ParseProgram(joined, state.catalog.get());
    if (!rules.ok()) {
      return Status::Internal("stored query does not parse: '" + joined + "'");
    }
    query = UnionQuery{std::move(*rules)};
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
