#include "frontend/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

namespace aqv {

namespace {

using Clock = std::chrono::steady_clock;

Status SocketError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

int MsUntil(Clock::time_point deadline, Clock::time_point now) {
  if (deadline <= now) return 0;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
  if (ms > 60'000) return 60'000;
  return static_cast<int>(ms) + 1;  // +1: never wake before the deadline
}

std::string TrimView(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// First whitespace-delimited word of a trimmed command line.
std::string FirstWord(const std::string& trimmed) {
  size_t split = trimmed.find_first_of(" \t");
  return split == std::string::npos ? trimmed : trimmed.substr(0, split);
}

bool IsMutatingCommand(const std::string& word) {
  return word == "view" || word == "query" || word == "fact" ||
         word == "reset" || word == "save" || word == "open" ||
         word == "load";
}

}  // namespace

/// Per-connection state, owned and touched exclusively by the event-loop
/// thread. The session is the one exception: the in-flight command task
/// reads and writes it on a pool worker — but at most one task per
/// connection is ever in flight (`executing`), and the hand-offs in both
/// directions go through locked queues, so the session is still accessed
/// by one thread at a time with proper happens-before edges.
struct FrontendServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  /// Bytes read but not yet terminated by '\n' (the line carry).
  std::string in;
  /// Rendered response bytes the socket has not accepted yet.
  std::string out;
  /// Parsed command lines waiting for their turn on the pool.
  std::deque<std::string> lines;
  /// True while a command task for this connection is on the pool.
  bool executing = false;
  /// True once the connection should close as soon as queued lines,
  /// the in-flight task, and the write buffer have drained.
  bool closing = false;
  /// True once no further bytes are read or parsed (quit, line-cap kill,
  /// EOF, server drain).
  bool read_shut = false;
  /// Peer half-closed its write side: finish queued work, flush, close.
  bool read_eof = false;
  /// Fd already closed while a task was in flight; the connection
  /// lingers (the task references its session) until the completion
  /// arrives, then is destroyed.
  bool dead = false;
  /// Line-cap violation verdict, delivered after earlier queued
  /// responses so wire order matches the synchronous server.
  std::string kill_error;
  bool authed = false;
  bool can_write = true;
  std::string user;
  Clock::time_point last_activity;
  uint32_t interest = 0;
  /// The connection-private oracle of `share_cache = false` mode.
  std::unique_ptr<ContainmentOracle> own_oracle;
  std::unique_ptr<Session> session;
};

FrontendServer::FrontendServer(ServerOptions options)
    : options_(std::move(options)) {
  service_ = std::make_unique<RewriteService>(options_.service);
  plan_cache_ = std::make_unique<RewritePlanCache>(
      options_.plan_cache_max_entries, options_.plan_cache_shards);
}

FrontendServer::~FrontendServer() {
  Stop();
  // The loop exits only once every connection (and its in-flight task) is
  // gone, but a finished task may still sit between its completion push
  // and its eventfd tick. Destroying the service joins the workers, after
  // which no thread can touch the fds — only then may they close.
  service_.reset();
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

Status FrontendServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::Internal("server already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return SocketError("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return SocketError("bind to " + options_.host + ":" +
                       std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 256) < 0) return SocketError("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return SocketError("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return SocketError("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) return SocketError("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listener
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return SocketError("epoll_ctl(listener)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // completion/stop wakeup
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    return SocketError("epoll_ctl(eventfd)");
  }
  loop_thread_ = std::thread(&FrontendServer::EventLoop, this);
  return Status::OK();
}

void FrontendServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_requested_.store(true);
  uint64_t tick = 1;
  [[maybe_unused]] ssize_t w = ::write(event_fd_, &tick, sizeof(tick));
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // event_fd_/epoll_fd_ stay open: a just-finished worker task may still
  // tick the eventfd (see the destructor, which closes both after the
  // service joins its workers).
}

std::string FrontendServer::RespondTo(Session& session,
                                      const std::string& line, bool* quit) {
  // STATS: the wire-level alias surfacing the shared service, oracle, and
  // plan-cache counters.
  CommandResult result =
      session.Execute(line == "STATS" ? "show stats" : line);
  std::string response = result.output;
  if (!response.empty()) response += '\n';
  if (result.quit) {
    *quit = true;
    response += "ok\n";
  } else if (result.status.ok()) {
    response += "ok\n";
  } else {
    response += "err " + result.status.ToString() + "\n";
  }
  return response;
}

std::string FrontendServer::Gate(Conn& conn, const std::string& line) {
  std::string trimmed = TrimView(line);
  // No-op lines (blank, comments) carry no authority and pass untouched —
  // the session answers them `ok` without counting a command, exactly as
  // the differential mirror does.
  if (trimmed.empty() || trimmed[0] == '%' || trimmed[0] == '#') return "";
  if (options_.accounts.empty()) return "";
  std::string word = FirstWord(trimmed);
  if (word == "auth") {
    size_t split = trimmed.find_first_of(" \t");
    std::string rest =
        split == std::string::npos ? "" : TrimView(trimmed.substr(split));
    size_t gap = rest.find_first_of(" \t");
    std::string user = gap == std::string::npos ? rest : rest.substr(0, gap);
    std::string token =
        gap == std::string::npos ? "" : TrimView(rest.substr(gap));
    if (user.empty() || token.empty() ||
        token.find_first_of(" \t") != std::string::npos) {
      return "err InvalidArgument: usage: auth <user> <token>\n";
    }
    for (const ServerAccount& account : options_.accounts) {
      if (account.user == user && account.token == token) {
        conn.authed = true;
        conn.user = user;
        conn.can_write = account.can_write;
        return "authenticated as " + user +
               (account.can_write ? "" : " (read-only)") + "\nok\n";
      }
    }
    return "err PermissionDenied: bad credentials for user '" + user +
           "'\n";
  }
  if (!conn.authed) {
    if (word == "quit" || word == "exit") {
      conn.closing = true;
      conn.read_shut = true;
      conn.lines.clear();
      return "ok\n";
    }
    return "err Unauthenticated: authenticate first (auth <user> "
           "<token>)\n";
  }
  if (!conn.can_write && IsMutatingCommand(word)) {
    return "err PermissionDenied: user '" + conn.user + "' is read-only\n";
  }
  return "";
}

void FrontendServer::EventLoop() {
  bool draining = false;
  Clock::time_point drain_deadline{};
  bool drain_forced = false;
  epoll_event events[64];
  while (true) {
    if (stop_requested_.load() && !draining) {
      draining = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Snapshot ids: Settle may destroy connections while we sweep.
      std::vector<uint64_t> ids;
      ids.reserve(conns_.size());
      for (const auto& entry : conns_) ids.push_back(entry.first);
      for (uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn& conn = *it->second;
        conn.read_shut = true;
        conn.closing = true;
        conn.lines.clear();
        conn.in.clear();
        Settle(conn);
      }
    }
    if (draining && conns_.empty()) return;

    int timeout = -1;
    Clock::time_point now = Clock::now();
    if (draining) {
      timeout = drain_forced ? -1 : MsUntil(drain_deadline, now);
    } else if (options_.idle_timeout_ms > 0 && !conns_.empty()) {
      Clock::time_point next = now + std::chrono::hours(1);
      for (const auto& entry : conns_) {
        const Conn& conn = *entry.second;
        if (conn.dead || conn.executing) continue;
        Clock::time_point expiry =
            conn.last_activity +
            std::chrono::milliseconds(options_.idle_timeout_ms);
        if (expiry < next) next = expiry;
      }
      timeout = MsUntil(next, now);
    }

    int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
    if (n < 0 && errno != EINTR) return;  // epoll fd died; nothing to serve
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t mask = events[i].events;
      if (tag == 0) {
        if (!draining) AcceptReady();
        continue;
      }
      if (tag == 1) {
        uint64_t drainv = 0;
        [[maybe_unused]] ssize_t r =
            ::read(event_fd_, &drainv, sizeof(drainv));
        DrainCompletions();
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if (conn.dead) continue;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        // Peer fully gone: responses are undeliverable, drop everything.
        CloseConn(conn);
        continue;
      }
      if (mask & EPOLLIN) {
        ReadReady(conn);
        if (conns_.find(tag) == conns_.end()) continue;
      }
      if (mask & EPOLLOUT) {
        WriteReady(conn);
        Settle(conn);
      }
    }

    now = Clock::now();
    if (draining) {
      if (!drain_forced && now >= drain_deadline) {
        // Flush budget exhausted: stop waiting for slow readers. In-flight
        // commands still finish (their connections linger as `dead` until
        // the completion lands; the loop exits only when all are gone).
        drain_forced = true;
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& entry : conns_) ids.push_back(entry.first);
        for (uint64_t id : ids) {
          auto it = conns_.find(id);
          if (it != conns_.end() && !it->second->dead) {
            CloseConn(*it->second);
          }
        }
      }
    } else if (options_.idle_timeout_ms > 0) {
      std::vector<uint64_t> expired;
      for (const auto& entry : conns_) {
        const Conn& conn = *entry.second;
        if (conn.dead || conn.executing) continue;
        if (now - conn.last_activity >=
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
          expired.push_back(entry.first);
        }
      }
      for (uint64_t id : expired) {
        auto it = conns_.find(id);
        if (it != conns_.end()) CloseConn(*it->second);
      }
    }
  }
}

void FrontendServer::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      std::string refusal = "err ResourceExhausted: connection limit (" +
                            std::to_string(options_.max_connections) +
                            ") reached\n";
      // Best-effort single send: the refusal fits any socket buffer.
      ::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    SessionOptions session_options = options_.session;
    session_options.service = service_.get();
    session_options.enable_load = false;
    if (options_.share_cache) {
      session_options.engine.oracle = &service_->oracle();
      session_options.plan_cache = plan_cache_.get();
    } else {
      conn->own_oracle = std::make_unique<ContainmentOracle>(
          options_.service.oracle_max_entries, options_.service.oracle_shards);
      session_options.engine.oracle = conn->own_oracle.get();
      session_options.plan_cache = nullptr;
    }
    conn->session = std::make_unique<Session>(session_options);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->interest = EPOLLIN;
    accepted_.fetch_add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void FrontendServer::ParseLines(Conn& conn) {
  size_t nl;
  while (!conn.read_shut &&
         (nl = conn.in.find('\n')) != std::string::npos) {
    if (nl > options_.max_line_bytes) break;
    std::string line = conn.in.substr(0, nl);
    conn.in.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    conn.lines.push_back(std::move(line));
  }
  if (!conn.read_shut && conn.in.size() > options_.max_line_bytes) {
    // Overlong line (terminated or not): verdict queued behind earlier
    // commands' responses, then the connection dies — same wire behavior
    // as the synchronous server, which had answered those already.
    conn.kill_error = "err InvalidArgument: line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes\n";
    conn.read_shut = true;
    conn.in.clear();
  }
}

void FrontendServer::ReadReady(Conn& conn) {
  char buf[4096];
  while (!conn.read_shut &&
         conn.lines.size() < options_.max_pipelined) {
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity = Clock::now();
      conn.in.append(buf, static_cast<size_t>(n));
      ParseLines(conn);
      continue;
    }
    if (n == 0) {
      // Peer half-closed: it may still be reading, so already-pipelined
      // commands run and their responses flush before we close.
      conn.read_eof = true;
      conn.read_shut = true;
      conn.in.clear();
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);  // connection reset; nothing deliverable
    return;
  }
  Pump(conn);
  Settle(conn);
}

void FrontendServer::Pump(Conn& conn) {
  while (!conn.executing && !conn.dead && !conn.lines.empty()) {
    std::string line = std::move(conn.lines.front());
    conn.lines.pop_front();
    std::string gated = Gate(conn, line);
    if (!gated.empty()) {
      QueueWrite(conn, std::move(gated));
      if (conn.closing) return;  // gated quit
      continue;
    }
    Session* session = conn.session.get();
    uint64_t id = conn.id;
    conn.executing = true;
    Status submitted =
        service_->SubmitTask([this, session, id, line = std::move(line)] {
          bool quit = false;
          std::string response = RespondTo(*session, line, &quit);
          {
            std::lock_guard<std::mutex> lock(comp_mu_);
            completions_.push_back(Completion{id, std::move(response), quit});
          }
          uint64_t tick = 1;
          [[maybe_unused]] ssize_t w =
              ::write(event_fd_, &tick, sizeof(tick));
        });
    if (!submitted.ok()) {
      // Only possible during service shutdown; answer at the boundary.
      conn.executing = false;
      QueueWrite(conn, "err " + submitted.ToString() + "\n");
      continue;
    }
    return;  // strictly one in-flight command per connection
  }
}

void FrontendServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    conn.executing = false;
    if (conn.dead) {
      // Force-closed while the task ran; now safe to destroy.
      conns_.erase(it);
      continue;
    }
    conn.last_activity = Clock::now();
    QueueWrite(conn, std::move(done.response));
    if (done.quit) {
      conn.closing = true;
      conn.read_shut = true;
      conn.lines.clear();
      conn.in.clear();
    } else {
      Pump(conn);
    }
    Settle(conn);
  }
}

void FrontendServer::QueueWrite(Conn& conn, std::string text) {
  if (conn.dead || conn.fd < 0) return;
  if (conn.out.empty()) {
    conn.out = std::move(text);
  } else {
    conn.out += text;
  }
  WriteReady(conn);
}

void FrontendServer::WriteReady(Conn& conn) {
  while (!conn.out.empty()) {
    ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn.last_activity = Clock::now();
      conn.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer gone: every remaining byte is undeliverable.
    conn.out.clear();
    conn.lines.clear();
    conn.read_shut = true;
    conn.closing = true;
    break;
  }
}

void FrontendServer::Settle(Conn& conn) {
  if (conn.dead) return;
  if (!conn.executing && conn.lines.empty()) {
    if (!conn.kill_error.empty()) {
      std::string verdict = std::move(conn.kill_error);
      conn.kill_error.clear();
      conn.closing = true;
      QueueWrite(conn, std::move(verdict));
    }
    if (conn.read_eof) conn.closing = true;
  }
  if (conn.closing && !conn.executing && conn.lines.empty() &&
      conn.out.empty()) {
    CloseConn(conn);
    return;
  }
  UpdateInterest(conn);
}

void FrontendServer::UpdateInterest(Conn& conn) {
  if (conn.fd < 0 || conn.dead) return;
  uint32_t want = 0;
  if (!conn.read_shut && conn.lines.size() < options_.max_pipelined) {
    want |= EPOLLIN;
  }
  if (!conn.out.empty()) want |= EPOLLOUT;
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = want;
}

void FrontendServer::CloseConn(Conn& conn) {
  if (conn.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  }
  if (conn.executing) {
    // The in-flight task references conn's session; linger until its
    // completion arrives (DrainCompletions destroys dead connections).
    conn.dead = true;
    return;
  }
  conns_.erase(conn.id);
}

}  // namespace aqv
