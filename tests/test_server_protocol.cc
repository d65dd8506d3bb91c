// Adversarial protocol tests of the epoll frontend server
// (frontend/server.h): hostile wire shapes — whole scripts pipelined into
// one write, byte-at-a-time slow-loris sends, partial lines abandoned by
// disconnects, RST aborts mid-response, problem loads whose pipelined
// runs of definitions split across reads, backpressure, errors and the
// auth gate, probes pipelined past TCP quick-ack — plus the operational
// edges: connection-cap refusal and recovery, idle-timeout sweeps, STATS
// under concurrent load, pipelined `quit` cutting off later commands, the
// auth/permission gate (handshake ordering, bad credentials, read-only
// refusal, tenant isolation), rewrites answered from the session's memo on
// the event loop (while the pool is held, and pipelined between
// mutations), and the Stop()-mid-write drain contract.
// Wherever responses are deterministic they are byte-compared against an
// inline Session rendered through RenderWireResponse — the server must be
// invisible as a transport. CI additionally runs this binary under
// ThreadSanitizer (the tsan-service job).

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frontend/server.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "testing/line_client.h"

namespace aqv {
namespace {

size_t CountTerminators(const std::string& stream) {
  size_t count = 0;
  size_t scanned = 0;
  size_t nl;
  while ((nl = stream.find('\n', scanned)) != std::string::npos) {
    std::string line = stream.substr(scanned, nl - scanned);
    if (line == "ok" || line.rfind("err ", 0) == 0) ++count;
    scanned = nl + 1;
  }
  return count;
}

/// The inline-Session ground truth for `commands`: what the server must
/// send byte for byte (session options mirror the server's template —
/// load disabled, everything else default). Stops after `quit`, exactly
/// as the server does.
std::string GroundTruth(const std::vector<std::string>& commands) {
  SessionOptions options;
  options.enable_load = false;
  Session session(options);
  std::string expected;
  for (const std::string& c : commands) {
    CommandResult result = session.Execute(c);
    expected += RenderWireResponse(result);
    if (result.quit) break;
  }
  return expected;
}

/// GroundTruth with no memo to go stale: each `rewrite` is answered by a
/// fresh session that has run only the lines before it that are not
/// rewrites (none of those lines' responses depend on a rewrite).
std::string RecomputedGroundTruth(const std::vector<std::string>& commands) {
  SessionOptions options;
  options.enable_load = false;
  Session session(options);
  std::vector<std::string> prefix;
  std::string expected;
  for (const std::string& c : commands) {
    if (Session::ParseCommand(c).word == "rewrite") {
      Session fresh(options);
      for (const std::string& p : prefix) fresh.Execute(p);
      expected += RenderWireResponse(fresh.Execute(c));
      continue;
    }
    CommandResult result = session.Execute(c);
    expected += RenderWireResponse(result);
    if (result.quit) break;
    prefix.push_back(c);
  }
  return expected;
}

/// A deterministic mixed script: mutations, probes, and errors.
const std::vector<std::string> kMixedScript = {
    "view v(X, Y) :- edge(X, Y), checked(Y).",
    "view w(X) :- checked(X).",
    "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
    "fact edge(1, 2).",
    "fact checked(2).",
    "fact edge(2, 3).",
    "show views",
    "show facts",
    "rewrite with lmss",
    "rewrite with minicon",
    "answer route direct",
    "answer route complete",
    "bogus command",
    "view broken(",
    "explain",
    "quit"};

// --- hostile framing ---------------------------------------------------

TEST(ServerProtocolTest, PipelinedScriptInOneWriteMatchesGroundTruth) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string expected = GroundTruth(kMixedScript);
  int fd = ConnectLoopback(server.port());
  std::string request;
  for (const std::string& c : kMixedScript) request += c + "\n";
  SendAll(fd, request);  // the whole session in a single write
  std::string received = RecvUntilEof(fd);  // quit closes: read to EOF
  ::close(fd);
  EXPECT_EQ(received, expected);
  server.Stop();
}

TEST(ServerProtocolTest, PipelinedLoadSplitIntoRunsMatchesGroundTruth) {
  // A problem load of 2,000 facts in one write. The server runs each
  // pipelined run of definitions and no-ops as one task, so runs end
  // wherever a read or the 64-line backpressure bound cuts the queue and
  // at the unknown word; the malformed view fails inside a run. None of
  // that may show on the wire.
  ServerOptions options;
  options.max_pipelined = 64;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::string> script = {"view v(X, Y) :- e(X, Y).",
                                     "query q(X) :- e(X, Y), e(Y, X)."};
  for (int i = 0; i < 2000; ++i) {
    if (i == 500) script.push_back("% a comment inside the load");
    if (i == 700) script.push_back("view broken(");
    if (i == 1300) script.push_back("bogus word");
    if (i == 1600) script.push_back("");
    script.push_back("fact e(" + std::to_string(i) + ", " +
                     std::to_string(i % 97) + ").");
  }
  for (const char* probe :
       {"show views", "answer route direct", "rewrite", "quit"}) {
    script.push_back(probe);
  }
  std::string expected = GroundTruth(script);
  int fd = ConnectLoopback(server.port());
  std::string request;
  for (const std::string& c : script) request += c + "\n";
  SendAll(fd, request);
  std::string received = RecvUntilEof(fd);
  ::close(fd);
  EXPECT_EQ(CountTerminators(received), script.size());
  EXPECT_EQ(received, expected);
  server.Stop();
}

TEST(ServerProtocolTest, PipelinedProbesDoNotWaitForDelayedAck) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  // Lock-step round trips take the connection out of TCP quick-ack mode:
  // from here on the client delays its ACKs.
  for (int i = 0; i < 50; ++i) {
    SendAll(fd, "show views\n");
    ASSERT_EQ(RecvResponses(fd, 1), "(none)\nok\n") << "round trip " << i;
  }
  // Two probes in one write are two tasks, answered by two sends. Under
  // Nagle the second send would wait for the ACK of the first, which the
  // client delays by tens of milliseconds.
  double fastest_ms = 1e9;
  for (int i = 0; i < 5; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    SendAll(fd, "show views\nshow views\n");
    ASSERT_EQ(RecvResponses(fd, 2), "(none)\nok\n(none)\nok\n") << "pair " << i;
    std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    fastest_ms = std::min(fastest_ms, took.count());
  }
  EXPECT_LT(fastest_ms, 20.0);
  SendAll(fd, "quit\n");
  EXPECT_EQ(RecvUntilEof(fd), "ok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, SlowLorisByteAtATimeMatchesGroundTruth) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> script = {
      "view v(X) :- e(X).", "fact e(1).", "show views", "quit"};
  std::string expected = GroundTruth(script);
  int fd = ConnectLoopback(server.port());
  std::string request;
  for (const std::string& c : script) request += c + "\n";
  // One byte per send: every line crosses many reads, and the carry
  // buffer reassembles each of them.
  for (char byte : request) {
    SendAll(fd, std::string(1, byte));
    if (byte == '\n') {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string received = RecvUntilEof(fd);
  ::close(fd);
  EXPECT_EQ(received, expected);
  server.Stop();
}

TEST(ServerProtocolTest, PartialLineDisconnectLeavesServerHealthy) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  // A client abandons an unterminated line. No response is owed for it
  // (the command never completed), and the server must carry on serving.
  {
    int fd = ConnectLoopback(server.port());
    SendAll(fd, "show vi");  // no newline, ever
    ::shutdown(fd, SHUT_WR);
    std::string received = RecvUntilEof(fd);
    EXPECT_EQ(received, "");
    ::close(fd);
  }
  // Completed lines pipelined *before* the abandoned fragment still get
  // their responses flushed on half-close.
  {
    int fd = ConnectLoopback(server.port());
    SendAll(fd, "help\nshow vi");
    ::shutdown(fd, SHUT_WR);
    std::string received = RecvUntilEof(fd);
    EXPECT_EQ(received, GroundTruth({"help"}));
    ::close(fd);
  }
  std::string after = Roundtrip(server.port(), {"help", "quit"});
  EXPECT_NE(after.find("commands:"), std::string::npos);
  server.Stop();
}

TEST(ServerProtocolTest, AbruptResetMidResponseLeavesServerHealthy) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  // Pipeline enough output to outrun the client, then RST the connection
  // (SO_LINGER{on, 0} turns close() into an abort) while the server is
  // still writing. The write error must only kill that connection.
  for (int round = 0; round < 4; ++round) {
    int fd = ConnectLoopback(server.port());
    std::string request;
    for (int i = 0; i < 64; ++i) request += "help\n";
    SendAll(fd, request);
    char buf[512];
    (void)::recv(fd, buf, sizeof(buf), 0);  // a taste, then slam the door
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }
  std::string after = Roundtrip(server.port(), {"help", "quit"});
  EXPECT_NE(after.find("commands:"), std::string::npos);
  server.Stop();
}

// --- operational limits ------------------------------------------------

TEST(ServerProtocolTest, ConnectionCapRefusesWithExactErrorAndRecovers) {
  ServerOptions options;
  options.max_connections = 2;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Fill the cap with two live connections (a served command proves each
  // is registered, not merely in the accept queue).
  int held_a = ConnectLoopback(server.port());
  SendAll(held_a, "show views\n");
  EXPECT_EQ(RecvResponses(held_a, 1), "(none)\nok\n");
  int held_b = ConnectLoopback(server.port());
  SendAll(held_b, "show views\n");
  EXPECT_EQ(RecvResponses(held_b, 1), "(none)\nok\n");

  // The third connection is refused with the documented terminator and
  // closed immediately.
  int refused = ConnectLoopback(server.port());
  EXPECT_EQ(RecvUntilEof(refused),
            "err ResourceExhausted: connection limit (2) reached\n");
  ::close(refused);

  // Releasing a slot restores service (the close needs an event-loop trip
  // to be observed, so poll until a fresh connection is served).
  SendAll(held_a, "quit\n");
  EXPECT_EQ(RecvUntilEof(held_a), "ok\n");
  ::close(held_a);
  std::string response;
  for (int attempt = 0; attempt < 100; ++attempt) {
    response = Roundtrip(server.port(), {"help", "quit"});
    if (response.find("commands:") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(response.find("commands:"), std::string::npos);

  ::close(held_b);
  server.Stop();
}

TEST(ServerProtocolTest, IdleConnectionsAreClosedByTheTimeoutSweep) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  auto t0 = std::chrono::steady_clock::now();
  std::string received = RecvUntilEof(fd);  // server closes, no verdict line
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(received, "");
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, ActiveConnectionSurvivesTheIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 300;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  // Gaps under the timeout, total well over it: activity must keep
  // resetting the idle clock.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    SendAll(fd, "show views\n");
    ASSERT_EQ(RecvResponses(fd, 1), "(none)\nok\n") << "iteration " << i;
  }
  SendAll(fd, "quit\n");
  EXPECT_EQ(RecvUntilEof(fd), "ok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, StatsUnderConcurrentLoadStaysWellFormed) {
  ServerOptions options;
  options.service.num_workers = 4;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> script = {
      "view v(X) :- e(X).", "fact e(1).", "query q(X) :- e(X).",
      "rewrite",            "STATS",      "quit"};
  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = Roundtrip(server.port(), script); });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    // STATS content races with the other clients, but every response must
    // be complete and framed: one terminator per command, the service and
    // plan-cache counters present (and no server oracle), never an error.
    EXPECT_EQ(CountTerminators(responses[i]), script.size()) << "client " << i;
    EXPECT_NE(responses[i].find("service: requests="), std::string::npos);
    EXPECT_EQ(responses[i].find("oracle: hits="), std::string::npos);
    EXPECT_NE(responses[i].find("plan_cache: hits="), std::string::npos);
    EXPECT_EQ(responses[i].find("err "), std::string::npos) << responses[i];
  }
  server.Stop();
}

TEST(ServerProtocolTest, PipelinedQuitStopsProcessingLaterCommands) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  // Everything after `quit` must be discarded, not executed: exactly two
  // responses, then EOF.
  SendAll(fd, "show views\nquit\nview v(X) :- e(X).\nshow views\n");
  std::string received = RecvUntilEof(fd);
  ::close(fd);
  EXPECT_EQ(received, GroundTruth({"show views", "quit"}));
  EXPECT_EQ(CountTerminators(received), 2u);
  server.Stop();
}

// --- auth / permissions ------------------------------------------------

ServerOptions TwoTenantOptions() {
  ServerOptions options;
  options.accounts = {{"alice", "s3cret", true}, {"bob", "hunter2", true}};
  return options;
}

TEST(ServerProtocolTest, CommandsBeforeAuthAreRefused) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  SendAll(fd, "show views\n");
  EXPECT_EQ(RecvResponses(fd, 1),
            "err Unauthenticated: authenticate first (auth <user> <token>)\n");
  SendAll(fd, "auth alice s3cret\n");
  EXPECT_EQ(RecvResponses(fd, 1), "authenticated as alice\nok\n");
  SendAll(fd, "show views\nquit\n");
  EXPECT_EQ(RecvUntilEof(fd), "(none)\nok\nok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, BadCredentialsAreRefusedWithoutKillingTheConn) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  SendAll(fd, "auth alice wrong\n");
  EXPECT_EQ(RecvResponses(fd, 1),
            "err PermissionDenied: bad credentials for user 'alice'\n");
  SendAll(fd, "auth mallory s3cret\n");
  EXPECT_EQ(RecvResponses(fd, 1),
            "err PermissionDenied: bad credentials for user 'mallory'\n");
  SendAll(fd, "auth\n");
  EXPECT_EQ(RecvResponses(fd, 1),
            "err InvalidArgument: usage: auth <user> <token>\n");
  // The connection survives every refusal; a correct handshake still works.
  SendAll(fd, "auth alice s3cret\nquit\n");
  EXPECT_EQ(RecvUntilEof(fd), "authenticated as alice\nok\nok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, UnauthenticatedQuitStillCloses) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  SendAll(fd, "quit\n");
  EXPECT_EQ(RecvUntilEof(fd), "ok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, CommentsAndBlanksPassTheGateUnauthenticated) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  // Comments and blank lines carry no authority: they reach the session
  // (which answers a bare `ok`) instead of being refused Unauthenticated.
  SendAll(fd, "% a comment\n\nauth bob hunter2\nquit\n");
  EXPECT_EQ(RecvUntilEof(fd), "ok\nok\nauthenticated as bob\nok\nok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, GateRefusalEndsARunOfDefinitions) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  // One write: the gate refuses the first view (no auth yet), `auth`
  // is answered at the boundary, and the view and fact behind it run.
  SendAll(fd,
          "view v(X) :- e(X).\nauth alice s3cret\nview w(X) :- e(X).\n"
          "fact e(1).\nquit\n");
  EXPECT_EQ(RecvUntilEof(fd),
            "err Unauthenticated: authenticate first (auth <user> <token>)\n"
            "authenticated as alice\nok\n"
            "added view w\nok\n"
            "ok (1 fact total)\nok\n"
            "ok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, ReadOnlyRefusalEndsARunOfDefinitions) {
  ServerOptions options;
  options.accounts = {{"auditor", "tok", false}};
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  SendAll(fd, "auth auditor tok\n");
  EXPECT_EQ(RecvResponses(fd, 1), "authenticated as auditor (read-only)\nok\n");
  // The comment runs; the view behind it is refused, not run with it.
  SendAll(fd, "% c\nview v(X) :- e(X).\nshow views\n");
  EXPECT_EQ(RecvResponses(fd, 3),
            "ok\n"
            "err PermissionDenied: user 'auditor' is read-only\n"
            "(none)\nok\n");
  ::close(fd);
  server.Stop();
}

TEST(ServerProtocolTest, ReadOnlyAccountsCannotMutate) {
  ServerOptions options;
  options.accounts = {{"auditor", "tok", false}};
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  SendAll(fd, "auth auditor tok\n");
  EXPECT_EQ(RecvResponses(fd, 1), "authenticated as auditor (read-only)\nok\n");
  // Every row the command table refuses for read-only accounts; the gate
  // judges the word alone, so any argument will do.
  std::vector<std::string> refused;
  for (const Session::Command& row : Session::Commands()) {
    if (!row.refused_read_only) continue;
    refused.emplace_back(row.word);
    SendAll(fd, std::string(row.word) + " x\n");
    EXPECT_EQ(RecvResponses(fd, 1),
              "err PermissionDenied: user 'auditor' is read-only\n")
        << row.word;
  }
  EXPECT_EQ(refused, (std::vector<std::string>{"view", "query", "fact", "load",
                                               "save", "open", "reset"}));
  // Read-side commands still work.
  SendAll(fd, "show views\nhelp\nquit\n");
  std::string rest = RecvUntilEof(fd);
  EXPECT_NE(rest.find("(none)\nok\n"), std::string::npos);
  EXPECT_NE(rest.find("commands:"), std::string::npos);
  ::close(fd);
  // Every other row gets past the gate to the session (one connection
  // each: `quit` and `exit` end theirs).
  for (const Session::Command& row : Session::Commands()) {
    if (row.refused_read_only) continue;
    int conn = ConnectLoopback(server.port());
    SendAll(conn, "auth auditor tok\n" + std::string(row.word) + "\nquit\n");
    std::string got = RecvUntilEof(conn);
    ::close(conn);
    EXPECT_EQ(got.rfind("authenticated as auditor (read-only)\nok\n", 0), 0u)
        << row.word;
    EXPECT_EQ(got.find("PermissionDenied"), std::string::npos) << row.word;
  }
  server.Stop();
}

TEST(ServerProtocolTest, TenantsNeverSeeEachOthersViews) {
  FrontendServer server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  // Two authenticated tenants interleaved on live connections: alice's
  // schema must be invisible to bob throughout, and vice versa.
  int alice = ConnectLoopback(server.port());
  int bob = ConnectLoopback(server.port());
  SendAll(alice, "auth alice s3cret\n");
  EXPECT_EQ(RecvResponses(alice, 1), "authenticated as alice\nok\n");
  SendAll(bob, "auth bob hunter2\n");
  EXPECT_EQ(RecvResponses(bob, 1), "authenticated as bob\nok\n");

  SendAll(alice, "view secret_a(X) :- e(X).\nfact e(42).\n");
  EXPECT_EQ(RecvResponses(alice, 2),
            "added view secret_a\nok\nok (1 fact total)\nok\n");
  SendAll(bob, "show views\nshow facts\n");
  EXPECT_EQ(RecvResponses(bob, 2), "(none)\nok\n(none)\nok\n");

  SendAll(bob, "view secret_b(Y) :- f(Y).\n");
  EXPECT_EQ(RecvResponses(bob, 1), "added view secret_b\nok\n");
  SendAll(alice, "show views\n");
  std::string alice_views = RecvResponses(alice, 1);
  EXPECT_NE(alice_views.find("secret_a"), std::string::npos);
  EXPECT_EQ(alice_views.find("secret_b"), std::string::npos);

  SendAll(alice, "quit\n");
  SendAll(bob, "quit\n");
  EXPECT_EQ(RecvUntilEof(alice), "ok\n");
  EXPECT_EQ(RecvUntilEof(bob), "ok\n");
  ::close(alice);
  ::close(bob);
  server.Stop();
}

// --- rewrites answered from the session's memo on the event loop -------

TEST(ServerProtocolTest, MemoRewriteIsAnsweredWhileThePoolIsHeld) {
  // One worker, held by a latched task, stands in for a hardness instance
  // on another connection: a repeated rewrite must still be answered, and
  // a line the memo cannot answer must wait for the worker.
  ServerOptions options;
  options.service.num_workers = 1;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> load = {
      "view v(X, Y) :- edge(X, Y), checked(Y).",
      "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).", "rewrite"};
  int b = ConnectLoopback(server.port());
  // A failing server must fail the test, not hang it.
  timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  std::string request;
  for (const std::string& line : load) request += line + "\n";
  SendAll(b, request);
  std::string expected = GroundTruth(load);
  EXPECT_EQ(RecvResponses(b, load.size()), expected);
  // The rewrite's response: what follows the definitions' responses.
  std::string first = expected.substr(GroundTruth({load[0], load[1]}).size());

  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  ASSERT_TRUE(server.service()
                  .SubmitTask([&] {
                    std::unique_lock<std::mutex> lock(mu);
                    started = true;
                    cv.notify_all();
                    cv.wait(lock, [&] { return released; });
                  })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::string carry;
  SendAll(b, "rewrite\n");
  Result<std::string> repeat = ReadResponse(b, &carry);
  SendAll(b, "STATS\n");
  char byte;
  bool answered_early = ::recv(b, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  Result<std::string> stats = ReadResponse(b, &carry);

  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(*repeat, first);
  EXPECT_FALSE(answered_early);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The pool ran the load's two lines, the first rewrite, the latched
  // task and STATS, in that order: STATS counts itself only once the
  // latch is gone, and the memo's answer is not a pool request. It is a
  // plan-cache hit.
  EXPECT_NE(stats->find("service: requests=5 ok=5 failed=0 workers=1"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("plan_cache: hits=1 misses=1 inserts=1 size=1"),
            std::string::npos)
      << *stats;
  SendAll(b, "quit\n");
  EXPECT_EQ(RecvUntilEof(b), "ok\n");
  ::close(b);
  server.Stop();
}

TEST(ServerProtocolTest, PipelinedRepeatsBetweenMutationsMatchGroundTruth) {
  // Two connections pipeline scripts whose rewrites repeat between view,
  // fact and reset lines, three rounds each: a stale memo, or a memo
  // answer sent out of order, is a byte divergence from a ground truth
  // that recomputes every rewrite.
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::vector<std::string>> scripts = {
      {"view v(X, Y) :- edge(X, Y), checked(Y).",
       "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
       "rewrite with lmss", "rewrite with lmss", "rewrite",
       "rewrite with minicon", "fact edge(1, 2).", "rewrite with lmss",
       "rewrite", "view w(X, Y) :- edge(X, Y).", "rewrite with lmss",
       "rewrite with lmss", "rewrite with bucket", "rewrite with bucket",
       "reset", "rewrite", "view u(X, Y) :- edge(Y, X).",
       "query q(X, Z) :- edge(X, Y), edge(Y, Z).", "rewrite with ucq",
       "rewrite with ucq", "rewrite with lmss", "quit"},
      {"view s(X, Y) :- e(X, Y).", "query q(X) :- e(X, Y), e(Y, X).",
       "rewrite", "rewrite", "view t(X) :- e(X, X).", "rewrite",
       "rewrite with ucq", "rewrite", "rewrite with ucq", "fact e(1, 1).",
       "rewrite with ucq", "reset", "view s(X, Y) :- e(X, Y).",
       "query q(X) :- e(X, Y), e(Y, X).", "rewrite", "rewrite", "quit"},
  };
  for (int round = 0; round < 3; ++round) {
    std::vector<std::string> responses(scripts.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < scripts.size(); ++i) {
      clients.emplace_back([&, i] {
        responses[i] = Roundtrip(server.port(), scripts[i]);
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < scripts.size(); ++i) {
      EXPECT_EQ(responses[i], RecomputedGroundTruth(scripts[i]))
          << "round " << round << ", script " << i;
    }
  }
  EXPECT_GT(server.plan_cache().stats().hits, 0u);
  server.Stop();
}

// --- Stop() drain contract ---------------------------------------------

TEST(ServerProtocolTest, StopMidWriteNeverTearsAResponse) {
  // Regression: Stop() while a connection has queued output (the client
  // pipelined 200 commands and is not reading) must flush whole responses
  // and then close — never cut a response mid-line, never strand the
  // client without EOF.
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string unit = GroundTruth({"help"});
  ASSERT_FALSE(unit.empty());

  int fd = ConnectLoopback(server.port());
  std::string request;
  for (int i = 0; i < 200; ++i) request += "help\n";
  SendAll(fd, request);
  // Let the server chew through part of the pipeline while the client
  // reads nothing, so response bytes are queued server-side at Stop time.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread stopper([&] { server.Stop(); });
  std::string received = RecvUntilEof(fd);  // concurrent with the drain
  stopper.join();
  ::close(fd);

  // Whatever was flushed is an exact prefix of the pipeline's responses:
  // a whole number of complete `help` responses, byte-identical each.
  ASSERT_EQ(received.size() % unit.size(), 0u)
      << "torn response: " << received.size() << " bytes is not a multiple of "
      << unit.size();
  for (size_t at = 0; at < received.size(); at += unit.size()) {
    ASSERT_EQ(received.compare(at, unit.size(), unit), 0)
        << "response " << (at / unit.size()) << " is corrupted";
  }
}

TEST(ServerProtocolTest, StopWithIdleAndMidLineConnectionsIsClean) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  int idle = ConnectLoopback(server.port());
  int midline = ConnectLoopback(server.port());
  SendAll(midline, "show vi");  // unterminated carry at Stop time
  std::thread stopper([&] { server.Stop(); });
  EXPECT_EQ(RecvUntilEof(idle), "");
  EXPECT_EQ(RecvUntilEof(midline), "");
  stopper.join();
  ::close(idle);
  ::close(midline);
}

}  // namespace
}  // namespace aqv
