/// \file
/// The TCP line-protocol transport of the frontend: a FrontendServer
/// multiplexes every client connection onto one epoll event loop
/// (non-blocking sockets, per-connection read/write buffers) and executes
/// each parsed command as one task on the shared RewriteService
/// worker pool (service/service.h) — so connection count is no longer
/// bounded by thread count, and N clients share one pool while their
/// problem state stays fully isolated per connection. All connections
/// share two server-lifetime caches: one sharded ContainmentOracle and one
/// RewritePlanCache (service/plan_cache.h). This is sound because oracle
/// entries are keyed by catalog-independent canonical encodings
/// (containment/oracle.h) and plan-cache keys embed the complete rendered
/// problem statement — so a query repeated on any connection against the
/// same schema is a cache hit, and responses stay byte-identical to an
/// uncached run. Set `share_cache = false` to restore fully isolated
/// per-connection oracles (the differential harness replays both modes).
///
/// Protocol (one command per '\n'-terminated line, as in aqvsh):
///
///   client:  view v(X) :- e(X, Y).\n
///   server:  added view v\n
///            ok\n
///   client:  bogus\n
///   server:  err InvalidArgument: unknown command 'bogus' (try 'help')\n
///
/// Every response is zero or more payload lines followed by exactly one
/// terminator line: `ok`, or `err <Code>: <message>`. Payload lines are
/// the session's CommandResult output verbatim; no payload line the
/// frontend emits is ever the bare word `ok` or starts with `err `, so a
/// client can parse responses by scanning for the terminator. `STATS` is
/// accepted as an alias for `show stats` (surfacing the shared service,
/// oracle, and plan-cache counters); `quit` answers `ok` and closes the
/// connection. `load` is disabled on server sessions — scripts run
/// client-side. When `accounts` is non-empty the server additionally
/// requires an `auth <user> <token>` handshake before any other command
/// (gated with `err Unauthenticated`), and read-only accounts get `err
/// PermissionDenied` on mutating commands; each connection's views and
/// facts are visible only on that connection, so authenticated tenants
/// never see each other's schema. Idle connections are closed after
/// `idle_timeout_ms`; Stop() drains gracefully — queued responses are
/// flushed (bounded by `drain_timeout_ms`) and in-flight commands always
/// complete before their connection is destroyed. The full protocol spec
/// lives in docs/OPERATIONS.md.

#ifndef AQV_FRONTEND_SERVER_H_
#define AQV_FRONTEND_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "containment/oracle.h"
#include "frontend/session.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "util/status.h"

namespace aqv {

/// One server account: `auth <user> <token>` authenticates a connection.
struct ServerAccount {
  std::string user;
  std::string token;
  /// False makes the account read-only: schema- or state-mutating
  /// commands (view/query/fact/reset/save/open) are refused with
  /// PermissionDenied; rewrite/answer/show/explain still work.
  bool can_write = true;
};

/// Construction-time knobs of a FrontendServer.
struct ServerOptions {
  /// Bind address. Loopback by default: the token handshake is plaintext.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the OS for an ephemeral one (read it back via
  /// port() after Start()).
  int port = 0;
  /// Concurrent-connection cap; excess connections are refused with an
  /// `err ResourceExhausted` terminator and closed.
  int max_connections = 64;
  /// Longest accepted command line; a longer one kills its connection.
  size_t max_line_bytes = 64 * 1024;
  /// Parsed-but-unexecuted command lines a connection may pipeline before
  /// the server stops reading from it (backpressure, not an error; reads
  /// resume as the queue drains).
  size_t max_pipelined = 1024;
  /// Connections idle (no bytes read, no response written) longer than
  /// this are closed by the event loop's timeout sweep. 0 disables.
  int idle_timeout_ms = 300'000;
  /// Stop() flushes pending response bytes for at most this long before
  /// force-closing write-blocked connections (in-flight commands still
  /// always run to completion).
  int drain_timeout_ms = 2'000;
  /// The backing RewriteService (worker pool). Each command runs inline
  /// as one task on it. With `share_cache`, the service's own oracle is
  /// the server-lifetime shared oracle; its `oracle_shards` and
  /// `oracle_max_entries` also size the per-connection oracles otherwise.
  ServiceOptions service;
  /// Template for per-connection sessions; `service` (the `show stats`
  /// source), `enable_load`, `engine.oracle`, and `plan_cache` are
  /// overwritten.
  SessionOptions session;
  /// True (default): all connections share one server-lifetime oracle and
  /// rewriting-plan cache. False: per-connection oracles, no plan cache —
  /// the pre-shared-cache behavior, kept for differential replay.
  bool share_cache = true;
  /// Total entry budget / shard count of the shared plan cache.
  size_t plan_cache_max_entries = size_t{1} << 16;
  size_t plan_cache_shards = 8;
  /// When non-empty, every connection must `auth` before other commands.
  std::vector<ServerAccount> accounts;
};

/// \brief Epoll-multiplexed line-protocol TCP server over per-connection
/// Sessions, one shared RewriteService pool, and server-lifetime rewriting
/// caches. Thread model: one event-loop thread owns every socket and all
/// connection state; command execution happens on the service's workers
/// (at most one in-flight command per connection, so each Session is
/// touched by one thread at a time); completions return to the loop
/// through an eventfd. Start/Stop may be called from any thread, once
/// each (Stop is also run by the destructor).
class FrontendServer {
 public:
  explicit FrontendServer(ServerOptions options = {});
  ~FrontendServer();

  FrontendServer(const FrontendServer&) = delete;
  FrontendServer& operator=(const FrontendServer&) = delete;

  /// Binds, listens, and spawns the event loop. kInternal on socket
  /// errors (port in use, bad host, ...).
  [[nodiscard]] Status Start();

  /// Stops accepting, drains every live connection (in-flight commands
  /// complete; buffered responses are flushed for up to
  /// `drain_timeout_ms`), and joins the event loop. Idempotent.
  void Stop();

  /// The resolved listening port (after Start()).
  int port() const { return port_; }
  const ServerOptions& options() const { return options_; }
  RewriteService& service() { return *service_; }
  /// The server-lifetime caches every connection shares (when
  /// `share_cache`; otherwise constructed but unused). The oracle is the
  /// service's own.
  ContainmentOracle& oracle() { return service_->oracle(); }
  RewritePlanCache& plan_cache() { return *plan_cache_; }
  uint64_t connections_accepted() const { return accepted_.load(); }

 private:
  struct Conn;
  /// One finished command: the rendered wire response of `conn_id`'s
  /// in-flight task, handed from a worker back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string response;
    bool quit = false;
  };

  void EventLoop();
  void AcceptReady();
  void ReadReady(Conn& conn);
  void WriteReady(Conn& conn);
  /// Splits `conn`'s read carry into lines (enforcing the line cap) and
  /// queues them for execution.
  void ParseLines(Conn& conn);
  /// Starts the next queued line if none is in flight: auth and gating
  /// answered inline, everything else dispatched to the pool.
  void Pump(Conn& conn);
  /// Applies completions delivered through the eventfd.
  void DrainCompletions();
  /// Appends `text` to the write buffer and flushes what the socket
  /// accepts now.
  void QueueWrite(Conn& conn, std::string text);
  /// Post-progress bookkeeping: emits a deferred line-cap verdict once
  /// queued work drains, closes the connection when it is fully drained
  /// and marked closing, and re-arms its epoll interest otherwise.
  void Settle(Conn& conn);
  /// Re-arms `conn`'s epoll registration to match its buffer state.
  void UpdateInterest(Conn& conn);
  void CloseConn(Conn& conn);
  /// The auth/permission gate. Returns an empty string when `line` may
  /// proceed to the session, else the full wire response that answers it
  /// at the boundary. Sets *handled_quit for gated `quit`.
  std::string Gate(Conn& conn, const std::string& line);
  /// Executes one protocol line on `session` (worker thread), returning
  /// the full wire response (payload + terminator). Sets *quit.
  static std::string RespondTo(Session& session, const std::string& line,
                               bool* quit);

  ServerOptions options_;
  std::unique_ptr<RewriteService> service_;
  std::unique_ptr<RewritePlanCache> plan_cache_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int port_ = 0;
  std::thread loop_thread_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<bool> stop_requested_{false};

  std::mutex mu_;  // guards started_/stopped_ (Start/Stop handshakes)
  bool started_ = false;
  bool stopped_ = false;

  std::mutex comp_mu_;  // guards completions_ (workers -> event loop)
  std::vector<Completion> completions_;

  // Event-loop-thread state (no locking: one owner thread).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd in epoll data
};

}  // namespace aqv

#endif  // AQV_FRONTEND_SERVER_H_
