// amdmb_serve — the benchmark-as-a-service daemon.
//
// Accepts sweep requests over a local Unix-domain socket (newline-
// delimited JSON; see src/serve/protocol.hpp), schedules them through a
// bounded FIFO-with-priority queue with explicit admission control, and
// executes them via the suite figure registry on the process-wide
// shared kernel cache — repeat requests skip compilation entirely. A
// completed request's "done" event carries the figure document
// byte-identical to the standalone bench binary's BENCH_<slug>.json.
//
// Usage:
//   amdmb_serve [--socket PATH] [--queue N] [--inflight K] [--version]
//
// Flags override the environment (AMDMB_SERVE_SOCKET, AMDMB_SERVE_QUEUE,
// AMDMB_SERVE_INFLIGHT). With neither --inflight nor
// AMDMB_SERVE_INFLIGHT, the daemon runs as many sweeps at once as the
// shared sweep pool has threads (see serve::DefaultInflight). Sweep
// knobs (AMDMB_THREADS, AMDMB_FAULTS, AMDMB_RETRY, ...) apply
// daemon-wide, exactly as for a bench binary.
//
// Shutdown contract: SIGTERM or SIGINT stops admission (later submits
// get "rejected"/"draining"), finishes every in-flight and queued
// sweep, flushes, and exits 0. A client's {"op":"drain"} does the same.
#include <csignal>

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "exec/thread_pool.hpp"
#include "serve/server.hpp"

namespace {

// The daemon's own SIGTERM/SIGINT flag (not common/interrupt: the
// contract here is graceful drain, not cancel-and-flush-partial).
volatile std::sig_atomic_t g_drain_signal = 0;

extern "C" void RecordDrainSignal(int signal_number) {
  g_drain_signal = signal_number;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--socket PATH] [--queue N] [--inflight K] [--version]\n";
  return 2;
}

/// Serves until a signal or a client's drain request, then drains.
int ServeUntilDrained(amdmb::serve::Server& daemon,
                      const std::string& banner) {
  std::signal(SIGTERM, RecordDrainSignal);
  std::signal(SIGINT, RecordDrainSignal);
  std::cout << banner << std::endl;
  while (g_drain_signal == 0 && !daemon.DrainRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "amdmb_serve: draining ("
            << (g_drain_signal != 0 ? "signal" : "client request")
            << ") — finishing admitted sweeps" << std::endl;
  daemon.Drain();
  std::cout << "amdmb_serve: drained, exiting" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amdmb;
  try {
    const env::Options& env_options = env::Get();
    serve::ServerConfig config;
    config.socket_path = env_options.serve_socket.value_or(
        std::string(env::kDefaultServeSocket));
    config.max_queue = env_options.serve_queue;
    config.max_inflight = env_options.serve_inflight.value_or(
        serve::DefaultInflight(exec::DefaultThreadCount()));
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--version") == 0) {
        std::cout << "amdmb_serve " << SuiteVersion() << "\n";
        return 0;
      } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
        config.socket_path = argv[++i];
      } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
        config.max_queue = env::ParseServeQueue(argv[++i]);
      } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
        config.max_inflight = env::ParseServeInflight(argv[++i]);
      } else {
        return Usage(argv[0]);
      }
    }

    serve::Server server(config);
    server.Start();
    return ServeUntilDrained(
        server, "amdmb_serve " + std::string(SuiteVersion()) +
                    " listening on " + server.SocketPath() + " (queue " +
                    std::to_string(config.max_queue) + ", inflight " +
                    std::to_string(config.max_inflight) + ")");
  } catch (const std::exception& e) {
    std::cerr << "amdmb_serve: " << e.what() << "\n";
    return 1;
  }
}
