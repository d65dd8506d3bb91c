#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

namespace aqv_e2e {

namespace {

using aqv::Result;
using aqv::Status;

/// Longest a response may take before the run counts it as failed.
constexpr int kReceiveTimeoutS = 60;

bool IsTerminator(std::string_view line) {
  return line == "ok" || line.substr(0, 4) == "err ";
}

/// The last line of a response (its terminator), without the newline.
std::string Terminator(const std::string& response) {
  size_t end = response.size() - 1;  // the final '\n'
  size_t start = response.rfind('\n', end - 1);
  start = start == std::string::npos ? 0 : start + 1;
  return response.substr(start, end - start);
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), carry_(std::move(other.carry_)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    carry_ = std::move(other.carry_);
  }
  return *this;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  carry_.clear();
}

Result<Connection> Connection::Open(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal(std::string("socket: ") + std::strerror(errno));
  Connection conn(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Status::Internal(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = kReceiveTimeoutS;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return conn;
}

Status Connection::Exchange(const std::string& text, int lines,
                            std::vector<std::string>* responses) {
  responses->clear();
  if (fd_ < 0) return Status::Internal("connection is closed");
  for (size_t sent = 0; sent < text.size();) {
    ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Internal(std::string("send: ") + std::strerror(errno));
    sent += static_cast<size_t>(n);
  }
  std::string current;
  size_t start = 0;  // first unconsumed byte of carry_
  while (static_cast<int>(responses->size()) < lines) {
    size_t nl = carry_.find('\n', start);
    if (nl == std::string::npos) {
      carry_.erase(0, start);
      start = 0;
      char buf[16384];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) return Status::Internal("server closed the connection");
      if (n < 0) {
        return Status::Internal(errno == EAGAIN || errno == EWOULDBLOCK
                                    ? "response timed out"
                                    : std::string("recv: ") + std::strerror(errno));
      }
      carry_.append(buf, static_cast<size_t>(n));
      continue;
    }
    bool terminator = IsTerminator(std::string_view(carry_).substr(start, nl - start));
    current.append(carry_, start, nl + 1 - start);
    start = nl + 1;
    if (terminator) {
      responses->push_back(std::move(current));
      current.clear();
    }
  }
  carry_.erase(0, start);
  return Status::OK();
}

bool HasError(const std::vector<std::string>& responses) {
  for (const std::string& response : responses) {
    if (Terminator(response) != "ok") return true;
  }
  return false;
}

std::string RenderWire(const aqv::CommandResult& result) {
  std::string response = result.output;
  if (!response.empty()) response += '\n';
  if (result.quit || result.status.ok()) return response + "ok\n";
  return response + "err " + result.status.ToString() + "\n";
}

std::optional<AnswerPayload> ParseAnswer(const std::string& response) {
  std::vector<std::string> lines = SplitLines(response);
  if (lines.size() < 2 || lines.back() != "ok") return std::nullopt;
  const std::string& header = lines[0];
  if (header.rfind("route ", 0) != 0) return std::nullopt;
  AnswerPayload payload;
  size_t route_end = header.find_first_of(" :", 6);
  size_t colon = header.find(": ");
  if (route_end == std::string::npos || colon == std::string::npos) {
    return std::nullopt;
  }
  payload.route = header.substr(6, route_end - 6);
  std::string tail = header.substr(colon + 2);  // "N answer(s) (exact)"
  size_t space = tail.find(' ');
  if (space == std::string::npos) return std::nullopt;
  payload.count = std::strtoull(tail.c_str(), nullptr, 10);
  if (tail.size() >= 8 && tail.compare(tail.size() - 8, 8, " (exact)") == 0) {
    payload.exact = true;
  } else if (tail.size() < 10 ||
             tail.compare(tail.size() - 10, 10, " (certain)") != 0) {
    return std::nullopt;
  }
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    if (lines[i].empty() || lines[i][0] != '(') return std::nullopt;
    payload.rows.push_back(lines[i]);
  }
  return payload;
}

bool TamperRow(std::string* response) {
  size_t row = response->find("\n(");
  if (row == std::string::npos) return false;
  response->insert(row + 2, "-");
  return true;
}

void ResponseChecker::BeginPhase() {
  direct_.reset();
  lmss_equivalent_.reset();
  ucq_equivalent_.reset();
}

void ResponseChecker::Fail(const std::string& why) {
  ++violations_;
  if (messages_.size() < 8) messages_.push_back(why);
}

bool ResponseChecker::Check(const Unit& unit,
                            const std::vector<std::string>& responses) {
  const std::string first_line = unit.text.substr(0, unit.text.find('\n'));
  if (static_cast<int>(responses.size()) != unit.lines) {
    Fail("`" + first_line + "`: " + std::to_string(responses.size()) +
         " terminators for " + std::to_string(unit.lines) + " lines");
    return false;
  }
  for (const std::string& response : responses) {
    std::string terminator = Terminator(response);
    if (terminator != "ok") {
      Fail("`" + first_line + "`: unexpected " + terminator);
      return false;
    }
  }
  if (unit.cls == Cls::kAnswer) {
    std::optional<AnswerPayload> answer = ParseAnswer(responses[0]);
    if (!answer.has_value() || answer->count != answer->rows.size()) {
      Fail("`" + first_line + "`: malformed answer payload");
      return false;
    }
    std::vector<std::string> rows = Sorted(std::move(answer->rows));
    if (answer->route == "direct") {
      if (direct_.has_value() && *direct_ != rows) {
        Fail("`" + first_line + "`: direct rows changed within a phase");
        return false;
      }
      direct_ = std::move(rows);
      return true;
    }
    if (!direct_.has_value()) return true;
    ++answers_checked_;
    bool ok = answer->exact ? rows == *direct_
                            : std::includes(direct_->begin(), direct_->end(),
                                            rows.begin(), rows.end());
    if (!ok) {
      Fail("`" + first_line + "`: " +
           (answer->exact ? "(exact) rows differ from direct"
                          : "(certain) rows are not a subset of direct"));
    }
    return ok;
  }
  if (unit.cls == Cls::kRewrite) {
    // "engine <e>: equivalent=yes|no, rewritings=N"
    const std::string& r = responses[0];
    size_t eq = r.find(": equivalent=");
    if (r.rfind("engine ", 0) != 0 || eq == std::string::npos) {
      Fail("`" + first_line + "`: malformed rewrite payload");
      return false;
    }
    std::string engine = r.substr(7, eq - 7);
    bool equivalent = r.compare(eq + 13, 3, "yes") == 0;
    if (engine == "lmss") lmss_equivalent_ = equivalent;
    if (engine == "ucq") ucq_equivalent_ = equivalent;
    if (lmss_equivalent_.has_value() && ucq_equivalent_.has_value() &&
        (engine == "lmss" || engine == "ucq")) {
      ++verdicts_checked_;
      if (*lmss_equivalent_ != *ucq_equivalent_) {
        Fail("`" + first_line + "`: lmss and ucq disagree on equivalent=");
        return false;
      }
    }
    return true;
  }
  if (unit.cls != Cls::kQuit) BeginPhase();
  return true;
}

void ResponseChecker::Merge(const ResponseChecker& other) {
  violations_ += other.violations_;
  answers_checked_ += other.answers_checked_;
  verdicts_checked_ += other.verdicts_checked_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
}

}  // namespace aqv_e2e
