// The system under test runs in a child process: the benchmark re-executes
// itself with `--serve`, so the server starts from a fresh address space.
// Its peak RSS is read from the child's VmHWM, which exec resets, rather
// than from wait4, whose ru_maxrss also counts the forked parent's pages.

#ifndef AQV_BENCH_E2E_SERVER_H_
#define AQV_BENCH_E2E_SERVER_H_

#include <sys/types.h>

#include <string>

#include "util/status.h"

namespace aqv_e2e {

/// Service workers of the server under test. With the 2 client threads
/// this keeps busy threads at the 4 cores the benchmark is sized for.
inline constexpr int kServerWorkers = 2;

/// A running server child. Stop() (or the destructor) ends it and waits.
class ServerProcess {
 public:
  /// Starts `self_exe --serve <fd>` and waits until it listens.
  [[nodiscard]] static aqv::Result<ServerProcess> Spawn(const std::string& self_exe);

  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&& other) noexcept;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  int port() const { return port_; }

  /// Reads the server's peak resident set (VmHWM, in MiB), then asks it
  /// to drain and exit and waits for it. kInternal if it did not exit
  /// cleanly.
  [[nodiscard]] aqv::Result<double> Stop();

 private:
  ServerProcess(pid_t pid, int port) : pid_(pid), port_(port) {}
  pid_t pid_ = -1;
  int port_ = 0;
};

/// The child's entry point: a FrontendServer with kServerWorkers workers
/// and shared caches (every other setting default) that reports its port
/// on `ready_fd` and runs until SIGTERM.
int ServeMain(int ready_fd);

}  // namespace aqv_e2e

#endif  // AQV_BENCH_E2E_SERVER_H_
