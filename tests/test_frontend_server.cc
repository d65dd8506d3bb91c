// Tests of the frontend TCP line-protocol server (frontend/server.h):
// protocol framing (payload lines + ok/err terminators), per-connection
// session isolation, the STATS alias, and the load-bearing concurrency
// claim — N concurrent clients running the same script through one shared
// RewriteService receive byte-identical responses. CI additionally runs
// this binary under ThreadSanitizer (the tsan-service job).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "frontend/server.h"
#include "gtest/gtest.h"

namespace aqv {
namespace {

/// Blocking TCP client helper: connects to 127.0.0.1:port.
int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  EXPECT_EQ(rc, 0) << std::strerror(errno);
  return fd;
}

bool IsTerminator(const std::string& line) {
  return line == "ok" || line.rfind("err ", 0) == 0;
}

/// Sends `commands` (one per line) and reads until `expected_terminators`
/// terminator lines arrived (or the peer closed). Returns everything read.
std::string Roundtrip(int port, const std::vector<std::string>& commands) {
  int fd = ConnectTo(port);
  std::string request;
  for (const std::string& c : commands) request += c + "\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string received;
  size_t terminators = 0;
  size_t scanned = 0;
  char buf[4096];
  while (terminators < commands.size()) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = received.find('\n', scanned)) != std::string::npos) {
      if (IsTerminator(received.substr(scanned, nl - scanned))) {
        ++terminators;
      }
      scanned = nl + 1;
    }
  }
  ::close(fd);
  return received;
}

const std::vector<std::string> kScript = {
    "view v(X, Y) :- edge(X, Y), checked(Y).",
    "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
    "fact edge(1, 2).",
    "fact checked(2).",
    "fact edge(2, 3).",
    "show views",
    "rewrite with lmss",
    "rewrite",
    "answer route direct",
    "answer route cost",
    "quit"};

TEST(FrontendServerTest, StartResolvesEphemeralPortAndStops) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(FrontendServerTest, SingleClientRoundTrip) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = Roundtrip(server.port(), kScript);
  EXPECT_NE(response.find("added view v\nok\n"), std::string::npos);
  EXPECT_NE(response.find("route direct: 1 answer (exact)\n(1, 3)\nok\n"),
            std::string::npos);
  EXPECT_NE(
      response.find("engine lmss: equivalent=no, rewritings=0\nok\n"),
      std::string::npos);
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.Stop();
}

TEST(FrontendServerTest, ErrorsUseErrTerminator) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response =
      Roundtrip(server.port(), {"bogus", "view broken(", "quit"});
  EXPECT_NE(response.find(
                "err InvalidArgument: unknown command 'bogus' (try 'help')"),
            std::string::npos);
  EXPECT_NE(response.find("err ParseError:"), std::string::npos);
  server.Stop();
}

TEST(FrontendServerTest, LoadIsDisabledOnServerSessions) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response =
      Roundtrip(server.port(), {"load /etc/hostname", "quit"});
  EXPECT_NE(response.find("err Unimplemented: load is disabled"),
            std::string::npos);
  server.Stop();
}

TEST(FrontendServerTest, StatsAliasSurfacesServiceStats) {
  ServerOptions options;
  options.service.num_workers = 2;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::string response = Roundtrip(
      server.port(),
      {"query q(X) :- e(X).", "fact e(1).", "answer route direct", "STATS",
       "quit"});
  // Every command executes as a counted task on the pool, and the
  // service counts a task before its body delivers the result — so by the
  // time the STATS task renders the line, the three commands before it
  // (query/fact/answer) and STATS itself are all deterministically
  // counted, exactly four.
  EXPECT_NE(response.find("service: requests=4 ok=4 failed=0 workers=2"),
            std::string::npos);
  EXPECT_NE(response.find("oracle: hits="), std::string::npos);
  EXPECT_NE(response.find("plan_cache: hits="), std::string::npos);
  server.Stop();
}

TEST(FrontendServerTest, SessionsAreIsolatedPerConnection) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string first = Roundtrip(
      server.port(), {"view v(X) :- e(X).", "fact e(1).", "quit"});
  EXPECT_NE(first.find("added view v"), std::string::npos);
  // A second connection starts from a blank session.
  std::string second =
      Roundtrip(server.port(), {"show views", "show facts", "quit"});
  EXPECT_NE(second.find("(none)\nok\n(none)\nok\n"), std::string::npos);
  server.Stop();
}

TEST(FrontendServerTest, ConcurrentClientsGetIdenticalResponses) {
  ServerOptions options;
  options.service.num_workers = 4;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::string expected = Roundtrip(server.port(), kScript);
  ASSERT_NE(expected.find("route direct: 1 answer (exact)"),
            std::string::npos);

  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = Roundtrip(server.port(), kScript);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[i], expected) << "client " << i;
  }
  EXPECT_EQ(server.connections_accepted(),
            static_cast<uint64_t>(kClients) + 1);
  EXPECT_GE(server.service().lifetime_stats().requests,
            static_cast<uint64_t>(kClients));
  server.Stop();
}

TEST(FrontendServerTest, StopWhileClientConnectedUnblocksIt) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  // Half a command, never finished: the handler is blocked in recv.
  ::send(fd, "show vi", 7, 0);
  std::thread stopper([&] { server.Stop(); });
  char buf[256];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  stopper.join();
  ::close(fd);
}

TEST(FrontendServerTest, OverlongLineIsRefused) {
  ServerOptions options;
  options.max_line_bytes = 64;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  // Both shapes of an overlong line must be refused: one that arrives
  // complete (newline included in the same packet) and one whose
  // terminator never comes.
  for (const std::string& big :
       {std::string(256, 'x') + "\n", std::string(256, 'x')}) {
    int fd = ConnectTo(server.port());
    ::send(fd, big.data(), big.size(), 0);
    std::string received;
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(received, "err InvalidArgument: line exceeds 64 bytes\n");
    ::close(fd);
  }
  server.Stop();
}

TEST(FrontendServerTest, LineExactlyAtCapIsAccepted) {
  ServerOptions options;
  options.max_line_bytes = 64;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  // Content length (newline excluded) == cap is the last accepted size,
  // and the connection stays fully usable afterwards.
  std::string at_cap = "%" + std::string(63, 'x');
  ASSERT_EQ(at_cap.size(), 64u);
  std::string response =
      Roundtrip(server.port(), {at_cap, "help", "quit"});
  EXPECT_EQ(response.find("err "), std::string::npos) << response;
  EXPECT_NE(response.find("ok\ncommands:"), std::string::npos) << response;
  server.Stop();
}

TEST(FrontendServerTest, LineOneByteOverCapIsRefused) {
  ServerOptions options;
  options.max_line_bytes = 64;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::string over_cap = "%" + std::string(64, 'x') + "\n";
  int fd = ConnectTo(server.port());
  ::send(fd, over_cap.data(), over_cap.size(), 0);
  std::string received;
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(received, "err InvalidArgument: line exceeds 64 bytes\n");
  ::close(fd);
  server.Stop();
}

TEST(FrontendServerTest, PartialLinesAcrossReadsRespectTheCap) {
  ServerOptions options;
  options.max_line_bytes = 64;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // An under-cap line split across two sends (the server recv()s the
  // fragments separately) is reassembled and accepted.
  {
    int fd = ConnectTo(server.port());
    std::string head = "%" + std::string(30, 'a');
    std::string tail = std::string(30, 'b') + "\nquit\n";
    ::send(fd, head.data(), head.size(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::send(fd, tail.data(), tail.size(), 0);
    std::string received;
    char buf[256];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(received, "ok\nok\n");
    ::close(fd);
  }

  // A newline-less carry that crosses the cap on a *later* read is
  // refused as soon as the accumulated partial line exceeds it.
  {
    int fd = ConnectTo(server.port());
    std::string fragment(40, 'x');
    ::send(fd, fragment.data(), fragment.size(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::send(fd, fragment.data(), fragment.size(), 0);
    std::string received;
    char buf[256];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(received, "err InvalidArgument: line exceeds 64 bytes\n");
    ::close(fd);
  }
  server.Stop();
}

TEST(FrontendServerTest, FinishedConnectionThreadsAreReaped) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  // Serial short-lived connections: each accept reaps the previous
  // connection's finished handler thread, so a long-lived server does
  // not accumulate one zombie thread per connection ever served (pinned
  // here behaviorally — every connection keeps getting full service).
  for (int i = 0; i < 32; ++i) {
    std::string response = Roundtrip(server.port(), {"help", "quit"});
    ASSERT_NE(response.find("commands:"), std::string::npos) << i;
  }
  EXPECT_EQ(server.connections_accepted(), 32u);
  server.Stop();
}

}  // namespace
}  // namespace aqv
