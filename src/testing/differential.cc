#include "testing/differential.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <regex>
#include <set>

#include "answering/answering.h"
#include "eval/relation.h"
#include "testing/line_client.h"

namespace aqv {

namespace {

/// The mirror's own ground truth: the direct route over the mirror's
/// current state, rendered exactly like the session renders answer rows
/// (sorted + deduplicated).
Result<std::vector<std::string>> DirectRows(const Session& session) {
  AnswerRequest request;
  request.query = *session.query();
  request.views = &session.views();
  request.base = &session.base();
  request.route = AnswerRoute::kDirect;
  request.options = session.options().engine;
  AQV_ASSIGN_OR_RETURN(AnswerResponse direct, AnswerQuery(request));
  Relation sorted = direct.result;
  sorted.SortDedup();
  return SplitScriptLines(sorted.ToString(session.catalog()));
}

/// The wire response of `engine` run afresh on the session's current
/// problem, rendered as `rewrite` renders it.
Result<std::string> FreshRewrite(const Session& session,
                                 const std::string& engine) {
  if (!session.query().has_value() || session.views().empty()) {
    return Status::InvalidArgument("no query or no views to rewrite");
  }
  RewriteRequest request;
  request.query = *session.query();
  request.views = &session.views();
  request.options = session.options().engine;
  AQV_ASSIGN_OR_RETURN(RewriteResponse response, RunEngine(engine, request));
  CommandResult fresh;
  fresh.output = Session::RenderRewrite(response);
  return RenderWireResponse(fresh);
}

/// True when a `(certain)` answer on the session's current problem must
/// equal the direct rows: neither the query nor any view has a
/// comparison, and lmss finds an equivalent view-only rewriting r. The
/// extents are views(base) exactly, and every possible world D' has
/// q(D') = r(views(D')) ⊇ r(views(base)) = q(base), so the certain
/// answers are q(base). A failed lmss run shows nothing.
bool CertainMustEqualDirect(const Session& session) {
  for (const Query& d : session.query()->disjuncts) {
    if (!d.comparisons().empty()) return false;
  }
  for (const View& v : session.views().views()) {
    if (!v.definition.comparisons().empty()) return false;
  }
  RewriteRequest request;
  request.query = *session.query();
  request.views = &session.views();
  request.options = session.options().engine;
  request.options.lmss.allow_base_atoms = false;
  Result<RewriteResponse> lmss = RunEngine("lmss", request);
  return lmss.ok() && lmss->equivalent_exists;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

std::string Divergence::ToString() const {
  return "cmd #" + std::to_string(command_index) + " `" + command +
         "`: " + kind;
}

std::vector<std::string> SplitScriptLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

Result<ParsedAnswerPayload> ParseAnswerPayload(const std::string& payload) {
  static const std::regex kHeader(
      R"(route ([^ :]*)(?: \(engine ([^)]*)\))?: (\d+) (answers?) )"
      R"(\((exact|certain)\))");
  std::vector<std::string> lines = SplitScriptLines(payload);
  std::smatch m;
  if (lines.empty() || !std::regex_match(lines[0], m, kHeader)) {
    return Status::InvalidArgument("answer header does not match the "
                                   "transcript grammar: '" +
                                   (lines.empty() ? "" : lines[0]) + "'");
  }
  ParsedAnswerPayload parsed;
  parsed.route = m[1];
  parsed.engine = m[2];
  parsed.count = std::stoi(m[3]);
  parsed.exact = m[5] == "exact";
  if (m[4] != (parsed.count == 1 ? "answer" : "answers")) {
    return Status::InvalidArgument("answer header count noun mismatch: '" +
                                   lines[0] + "'");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    // Row lines: "(v1, v2)" tuples; "{()}"/"{}" for nullary heads.
    if (lines[i].empty() || (lines[i][0] != '(' && lines[i][0] != '{')) {
      return Status::InvalidArgument("answer row does not look like a tuple: '" +
                                     lines[i] + "'");
    }
    parsed.rows.push_back(lines[i]);
  }
  return parsed;
}

MirrorChecker::MirrorChecker(SessionOptions options)
    : oracle_(/*max_entries=*/1 << 20, /*num_shards=*/1),
      session_([this, &options] {
        // The differential point: a private session against the server's
        // pool-run sessions, memoized containment against direct.
        options.service = nullptr;
        options.enable_load = false;
        options.engine.oracle = &oracle_;
        return Session(std::move(options));
      }()) {}

Session::MirrorMode MirrorChecker::ModeOf(std::string_view command) {
  Session::CommandLine line = Session::ParseCommand(command);
  if (line.word == "auth") return Session::MirrorMode::kSkip;
  if (line.word.empty()) return Session::MirrorMode::kExecute;
  if (line.command == nullptr) return Session::MirrorMode::kCompare;
  return line.command->mirror;
}

std::optional<Divergence> MirrorChecker::Check(const std::string& command,
                                               const std::string& raw_response) {
  int index = index_++;
  // Skipped lines never reach the mirror session: `auth` would count a
  // command the server session never saw, and save/open would touch
  // disk. Skipping save/open keeps the mirror in lock-step anyway:
  // mutations are journaled as they run, so a server-side `open` reloads
  // exactly the state both sides already hold — and every answer
  // byte-compare after it doubles as a persistence round-trip check
  // (recovered state vs never-persisted mirror state).
  Session::MirrorMode mode = ModeOf(command);
  if (mode == Session::MirrorMode::kSkip) return std::nullopt;
  std::optional<std::string> memo_engine;
  if (session_.AnswersFromMemo(command)) {
    memo_engine = Session::RewriteEngineOf(command);
  }
  CommandResult mirror = session_.Execute(command);
  if (mode != Session::MirrorMode::kCompare) return std::nullopt;

  auto diverge = [&](std::string kind, std::string expected,
                     std::string actual) {
    return Divergence{index, command, std::move(kind), std::move(expected),
                      std::move(actual)};
  };

  std::string expected = RenderWireResponse(mirror);
  if (expected != raw_response) {
    return diverge("wire-mismatch", expected, raw_response);
  }

  if (memo_engine.has_value()) {
    ++rewrites_rederived_;
    Result<std::string> fresh = FreshRewrite(session_, *memo_engine);
    std::string want = fresh.ok() ? *fresh : fresh.status().ToString();
    if (want != raw_response) {
      return diverge("stale-rewrite", want, raw_response);
    }
  }

  std::string_view word = Session::ParseCommand(command).word;
  if (word == "rewrite" && mirror.ok()) ++rewrites_checked_;
  if (word != "answer" || !mirror.ok()) return std::nullopt;

  ++answers_checked_;
  auto parsed = ParseAnswerPayload(mirror.output);
  if (!parsed.ok()) {
    return diverge("malformed-answer", "transcript-grammar answer payload",
                   parsed.status().ToString() + "\npayload:\n" + mirror.output);
  }
  auto direct = DirectRows(session_);
  if (!direct.ok()) {
    return diverge("direct-failed",
                   "direct route executes on the mirror state",
                   direct.status().ToString());
  }
  if (parsed->exact) {
    // "(exact)" claims the result is exactly q(base).
    if (parsed->rows != *direct) {
      return diverge("exact-mismatch", JoinLines(*direct),
                     JoinLines(parsed->rows));
    }
  } else {
    // "(certain)" claims soundness: every row is a certain answer, hence
    // present in q(base).
    ++certain_checked_;
    std::set<std::string> truth(direct->begin(), direct->end());
    for (const std::string& row : parsed->rows) {
      if (truth.count(row) == 0) {
        return diverge("certain-not-subset", JoinLines(*direct),
                       "unsound row: " + row);
      }
    }
    // And completeness, where the certain answers are known to be q(base).
    if (CertainMustEqualDirect(session_)) {
      ++certain_held_equal_;
      if (parsed->rows != *direct) {
        return diverge("certain-incomplete", JoinLines(*direct),
                       JoinLines(parsed->rows));
      }
    }
  }
  return std::nullopt;
}

bool FlipOneAnswer(std::string* raw_response) {
  size_t route = raw_response->find("route ");
  if (route == std::string::npos) return false;
  // The first digit after the header start is the answer count (route and
  // engine names are digit-free); flipping it breaks any honest rendering.
  for (size_t i = route; i < raw_response->size(); ++i) {
    char c = (*raw_response)[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      (*raw_response)[i] = c == '9' ? '0' : static_cast<char>(c + 1);
      return true;
    }
  }
  return false;
}

Result<TcpReplayResult> ReplayAndCheckOverTcp(
    int port, const std::vector<std::string>& lines,
    const TcpReplayOptions& options) {
  int fd = ConnectLoopback(port);
  if (fd < 0) {
    return Status::Internal("connect to 127.0.0.1:" + std::to_string(port) +
                            " failed: " + std::strerror(errno));
  }
  struct timeval tv;
  tv.tv_sec = options.recv_timeout_s;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  MirrorChecker checker(options.mirror);
  std::string carry;
  TcpReplayResult result;
  int answers_seen = 0;
  Status transport = Status::OK();
  // Reads and checks the response to `line`; false once the replay stops.
  auto check_next = [&](const std::string& line) {
    Result<std::string> raw = ReadResponse(fd, &carry);
    if (!raw.ok()) {
      transport = raw.status();
      return false;
    }

    bool is_answer = Session::ParseCommand(line).word == "answer";
    bool tamper =
        (is_answer && options.tamper_at_answer >= 0 &&
         answers_seen == options.tamper_at_answer) ||
        (!options.tamper_match.empty() && line == options.tamper_match);
    if (is_answer) ++answers_seen;
    if (tamper) FlipOneAnswer(&*raw);

    result.divergence = checker.Check(line, *raw);
    return !result.divergence.has_value() && line != "quit" &&
           line != "exit";
  };
  auto batchable = [&lines](size_t i) {
    return Session::ParseCommand(lines[i]).IsDefinitionOrNoop();
  };
  size_t next = 0;
  bool going = true;
  while (going && next < lines.size()) {
    // A run of definitions and no-ops goes out in one write, the way a
    // client sends a problem load (the server runs it as one task); any
    // other line goes alone. Responses are checked one at a time, in order.
    size_t end = next + 1;
    if (batchable(next)) {
      while (end < lines.size() && batchable(end)) ++end;
    }
    std::string request;
    for (size_t i = next; i < end; ++i) request += lines[i] + "\n";
    if (!SendAll(fd, request)) {
      transport = Status::Internal("send failed: " +
                                   std::string(std::strerror(errno)));
      break;
    }
    result.commands_sent += static_cast<int>(end - next);
    while (going && next < end) going = check_next(lines[next++]);
  }
  result.answers_checked = checker.answers_checked();
  result.rewrites_checked = checker.rewrites_checked();
  result.rewrites_rederived = checker.rewrites_rederived();
  result.certain_checked = checker.certain_checked();
  result.certain_held_equal = checker.certain_held_equal();
  ::close(fd);
  AQV_RETURN_NOT_OK(transport);
  return result;
}

std::vector<std::string> ShrinkScript(
    std::vector<std::string> lines,
    const std::function<bool(const std::vector<std::string>&)>& still_diverges) {
  size_t chunk = std::max<size_t>(1, lines.size() / 2);
  while (true) {
    bool removed = false;
    size_t start = 0;
    while (start + chunk <= lines.size() && lines.size() > 1) {
      std::vector<std::string> candidate;
      candidate.reserve(lines.size() - chunk);
      candidate.insert(candidate.end(), lines.begin(),
                       lines.begin() + static_cast<ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       lines.begin() + static_cast<ptrdiff_t>(start + chunk),
                       lines.end());
      if (!candidate.empty() && still_diverges(candidate)) {
        lines = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      // 1-minimal: a full single-line pass with no removal is a fixpoint.
      if (!removed) break;
    } else {
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  return lines;
}

}  // namespace aqv
