#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

#include "frontend/server.h"

namespace aqv_e2e {

namespace {

using aqv::Result;
using aqv::Status;

constexpr int kReadyTimeoutMs = 30'000;
constexpr int kExitTimeoutMs = 30'000;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// The process's VmHWM in MiB. exec gives the child a fresh mm, so this is
/// the server's own high-water mark; wait4's ru_maxrss would also count
/// the parent's heap that the fork copied.
Result<double> PeakRssMiB(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return Status::Internal("no VmHWM for the server process");
}

}  // namespace

Result<ServerProcess> ServerProcess::Spawn(const std::string& self_exe) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) < 0) return Errno("pipe2");
  // The write end the child keeps across exec (no FD_CLOEXEC).
  int child_fd = ::fcntl(fds[1], F_DUPFD, 3);
  ::close(fds[1]);
  if (child_fd < 0) {
    ::close(fds[0]);
    return Errno("fcntl");
  }
  const std::string fd_arg = std::to_string(child_fd);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(child_fd);
    return Errno("fork");
  }
  if (pid == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    ::execlp(self_exe.c_str(), self_exe.c_str(), "--serve", fd_arg.c_str(),
             static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(child_fd);
  ServerProcess server(pid, 0);
  pollfd pfd{fds[0], POLLIN, 0};
  int port = 0;
  bool ready = ::poll(&pfd, 1, kReadyTimeoutMs) == 1 &&
               ::read(fds[0], &port, sizeof(port)) == sizeof(port);
  ::close(fds[0]);
  if (!ready || port <= 0) return Status::Internal("server did not start");
  server.port_ = port;
  return server;
}

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)), port_(other.port_) {}

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = std::exchange(other.pid_, -1);
    port_ = other.port_;
  }
  return *this;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Result<double> ServerProcess::Stop() {
  if (pid_ <= 0) return Status::Internal("server is not running");
  Result<double> peak = PeakRssMiB(pid_);
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t done = 0;
  for (int waited = 0; waited < kExitTimeoutMs; waited += 10) {
    done = ::waitpid(pid_, &status, WNOHANG);
    if (done != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    done = ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("server did not exit cleanly");
  }
  return peak;
}

int ServeMain(int ready_fd) {
  // Block the stop signals before any thread exists, so every server
  // thread inherits the mask and sigwait below receives them.
  sigset_t stop;
  sigemptyset(&stop);
  sigaddset(&stop, SIGTERM);
  sigaddset(&stop, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop, nullptr);

  aqv::ServerOptions options;
  options.service.num_workers = kServerWorkers;
  aqv::FrontendServer server(options);
  aqv::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "aqv_bench --serve: %s\n", started.ToString().c_str());
    return 1;
  }
  int port = server.port();
  if (::write(ready_fd, &port, sizeof(port)) != sizeof(port)) return 1;
  ::close(ready_fd);
  int signal_number = 0;
  sigwait(&stop, &signal_number);
  server.Stop();
  return 0;
}

}  // namespace aqv_e2e
