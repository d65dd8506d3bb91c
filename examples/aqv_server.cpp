// aqv_server — the TCP line-protocol front door (frontend/server.h): N
// concurrent clients, each with its own Session, all sharing one
// RewriteService worker pool and one rewriting-plan cache.
//
//   $ ./aqv_server [port] [workers]
//   listening on 127.0.0.1:7461
//
// port 0 (the default) asks the OS for an ephemeral port; the resolved
// one is printed on stdout, so scripts can poll the line and connect
// (tools/frontend_smoke.sh does exactly that, with bash's /dev/tcp).
// workers 0 (the default) resolves to hardware_concurrency. Runs until
// SIGINT/SIGTERM. Protocol spec: docs/OPERATIONS.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "frontend/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  aqv::ServerOptions options;
  if (argc > 1) options.port = std::atoi(argv[1]);
  if (argc > 2) options.service.num_workers = std::atoi(argv[2]);

  aqv::FrontendServer server(options);
  aqv::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "aqv_server: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%d\n", server.options().host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::printf("shut down after %llu connection(s)\n",
              static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}
