#include "testing/line_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace aqv {

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> ReadResponse(int fd, std::string* carry) {
  size_t scanned = 0;
  while (true) {
    size_t nl;
    while ((nl = carry->find('\n', scanned)) != std::string::npos) {
      std::string_view line(carry->data() + scanned, nl - scanned);
      scanned = nl + 1;
      if (line == "ok" || line.rfind("err ", 0) == 0) {
        std::string response = carry->substr(0, scanned);
        carry->erase(0, scanned);
        return response;
      }
    }
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::Internal("server closed the connection mid-response");
    }
    if (n < 0) {
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    carry->append(buf, static_cast<size_t>(n));
  }
}

std::string RecvResponses(int fd, size_t count) {
  std::string received;
  std::string carry;
  for (size_t i = 0; i < count; ++i) {
    Result<std::string> response = ReadResponse(fd, &carry);
    if (!response.ok()) break;
    received += *response;
  }
  return received + carry;
}

std::string RecvUntilEof(int fd) {
  std::string received;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  return received;
}

std::string Roundtrip(int port, const std::vector<std::string>& commands) {
  int fd = ConnectLoopback(port);
  std::string request;
  for (const std::string& c : commands) request += c + "\n";
  SendAll(fd, request);
  std::string received = RecvResponses(fd, commands.size());
  ::close(fd);
  return received;
}

}  // namespace aqv
