#include "frontend/differential.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <set>

#include "answering/answering.h"
#include "eval/relation.h"

namespace aqv {

namespace {

/// First whitespace-delimited token of `line` after leading blanks.
std::string_view FirstWord(std::string_view line) {
  size_t b = line.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  size_t e = line.find_first_of(" \t", b);
  return line.substr(b, e == std::string_view::npos ? line.size() - b : e - b);
}

std::string_view SecondWord(std::string_view line) {
  std::string_view first = FirstWord(line);
  if (first.empty()) return {};
  size_t off = static_cast<size_t>(first.data() - line.data()) + first.size();
  return FirstWord(line.substr(off));
}

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
  request.eval = session.options().eval;
  AQV_ASSIGN_OR_RETURN(AnswerResponse direct, AnswerQuery(request));
  Relation sorted = direct.result;
  sorted.SortDedup();
  return SplitScriptLines(sorted.ToString(session.catalog()));
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
  std::vector<std::string> lines = SplitScriptLines(payload);
  if (lines.empty()) {
    return Status::InvalidArgument("answer payload is empty");
  }
  const std::string& header = lines[0];
  ParsedAnswerPayload parsed;
  size_t pos = 0;
  auto expect = [&](std::string_view token) -> bool {
    if (header.compare(pos, token.size(), token) != 0) return false;
    pos += token.size();
    return true;
  };
  if (!expect("route ")) {
    return Status::InvalidArgument("answer header does not start with 'route ': '" +
                                   header + "'");
  }
  size_t route_end = header.find_first_of(" :", pos);
  if (route_end == std::string::npos) {
    return Status::InvalidArgument("answer header missing ':': '" + header + "'");
  }
  parsed.route = header.substr(pos, route_end - pos);
  pos = route_end;
  if (expect(" (engine ")) {
    size_t close = header.find(')', pos);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated engine echo: '" + header + "'");
    }
    parsed.engine = header.substr(pos, close - pos);
    pos = close + 1;
  }
  if (!expect(": ")) {
    return Status::InvalidArgument("answer header missing ': ': '" + header + "'");
  }
  size_t digits = pos;
  while (pos < header.size() &&
         std::isdigit(static_cast<unsigned char>(header[pos]))) {
    ++pos;
  }
  if (pos == digits) {
    return Status::InvalidArgument("answer header missing count: '" + header + "'");
  }
  parsed.count = std::stoi(header.substr(digits, pos - digits));
  if (!expect(parsed.count == 1 ? " answer" : " answers")) {
    return Status::InvalidArgument("answer header count noun mismatch: '" +
                                   header + "'");
  }
  if (expect(" (exact)")) {
    parsed.exact = true;
  } else if (expect(" (certain)")) {
    parsed.exact = false;
  } else {
    return Status::InvalidArgument("answer header missing exactness tag: '" +
                                   header + "'");
  }
  if (pos != header.size()) {
    return Status::InvalidArgument("trailing junk in answer header: '" + header +
                                   "'");
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
        // pool-run sessions, one shard against its sharded oracle.
        options.service = nullptr;
        options.enable_load = false;
        options.engine.oracle = &oracle_;
        return Session(std::move(options));
      }()) {}

bool MirrorChecker::IsCheckable(std::string_view command) {
  std::string_view first = FirstWord(command);
  if (first.empty() || first[0] == '%' || first[0] == '#') return false;
  if (command == "STATS" || first == "load") return false;
  if (first == "save" || first == "open") return false;
  if (first == "auth") return false;  // server-boundary, no mirror analogue
  if (first == "show" && SecondWord(command) == "stats") return false;
  return true;
}

std::optional<Divergence> MirrorChecker::Check(const std::string& command,
                                               const std::string& raw_response) {
  std::string_view first_word = FirstWord(command);
  if (first_word == "auth") {
    // Authentication is handled at the server boundary, before any
    // session sees the line; the mirror session must not execute it (it
    // would count a command the server session never saw).
    ++index_;
    return std::nullopt;
  }
  if (first_word == "save" || first_word == "open") {
    // The mirror never touches disk. Skipping save/open entirely keeps it
    // in lock-step anyway: mutations are journaled as they run, so a
    // server-side `open` reloads exactly the state both sides already
    // hold — and every answer byte-compare after this point doubles as a
    // persistence round-trip check (recovered state vs never-persisted
    // mirror state).
    ++index_;
    return std::nullopt;
  }
  CommandResult mirror =
      session_.Execute(command == "STATS" ? "show stats" : command);
  int index = index_++;
  if (!IsCheckable(command)) return std::nullopt;

  auto diverge = [&](std::string kind, std::string expected,
                     std::string actual) {
    Divergence d;
    d.command_index = index;
    d.command = command;
    d.kind = std::move(kind);
    d.expected = std::move(expected);
    d.actual = std::move(actual);
    return d;
  };

  std::string expected = RenderWireResponse(mirror);
  if (expected != raw_response) {
    return diverge("wire-mismatch", expected, raw_response);
  }

  std::string_view first = FirstWord(command);
  if (first == "rewrite" && mirror.ok()) ++rewrites_checked_;
  if (first != "answer" || !mirror.ok()) return std::nullopt;

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
    std::set<std::string> truth(direct->begin(), direct->end());
    for (const std::string& row : parsed->rows) {
      if (truth.count(row) == 0) {
        return diverge("certain-not-subset", JoinLines(*direct),
                       "unsound row: " + row);
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

namespace {

/// Buffered line reads off a connected socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  Result<std::string> NextLine() {
    while (true) {
      size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        std::string line = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return line;
      }
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) {
        return Status::Internal("server closed the connection mid-response");
      }
      if (n < 0) {
        return Status::Internal(std::string("recv failed: ") +
                                std::strerror(errno));
      }
      carry_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string carry_;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool IsTerminator(const std::string& line) {
  return line == "ok" || line.rfind("err ", 0) == 0;
}

}  // namespace

Result<TcpReplayResult> ReplayAndCheckOverTcp(
    int port, const std::vector<std::string>& lines,
    const TcpReplayOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  struct timeval tv;
  tv.tv_sec = options.recv_timeout_s;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect to 127.0.0.1:" + std::to_string(port) +
                            " failed: " + err);
  }

  MirrorChecker checker(options.mirror);
  LineReader reader(fd);
  TcpReplayResult result;
  int answers_seen = 0;
  Status transport = Status::OK();
  for (const std::string& line : lines) {
    if (!SendAll(fd, line + "\n")) {
      transport = Status::Internal("send failed: " +
                                   std::string(std::strerror(errno)));
      break;
    }
    ++result.commands_sent;
    std::string raw;
    while (true) {
      auto next = reader.NextLine();
      if (!next.ok()) {
        transport = next.status();
        break;
      }
      raw += *next + "\n";
      if (IsTerminator(*next)) break;
    }
    if (!transport.ok()) break;

    bool is_answer = FirstWord(line) == "answer";
    bool tamper =
        (is_answer && options.tamper_at_answer >= 0 &&
         answers_seen == options.tamper_at_answer) ||
        (!options.tamper_match.empty() && line == options.tamper_match);
    if (is_answer) ++answers_seen;
    if (tamper) FlipOneAnswer(&raw);

    result.divergence = checker.Check(line, raw);
    if (result.divergence.has_value()) break;
    if (line == "quit" || line == "exit") break;
  }
  result.answers_checked = checker.answers_checked();
  result.rewrites_checked = checker.rewrites_checked();
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
