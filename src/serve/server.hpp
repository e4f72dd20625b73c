// The benchmark-as-a-service daemon core.
//
// Listens on a Unix-domain stream socket, speaks the NDJSON protocol of
// serve/protocol.hpp, and executes admitted sweep requests through the
// suite figure registry on the bounded scheduler. All requests share
// the process-wide exec::KernelCache, so a repeated figure skips every
// compilation its first run paid for — that is the daemon's reason to
// exist over forking a bench binary per request.
//
// Lifecycle: Start() binds and spins the accept loop; Drain() (the
// SIGTERM contract, also reachable via the client's "drain" op) stops
// admission, finishes every already-admitted sweep, then closes
// sessions and joins all threads; Wait() blocks the daemon main until
// that shutdown completes. Overload never hangs a client: admission
// beyond queue + in-flight capacity answers "rejected"/"overloaded"
// immediately.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kerncap/intake.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "suite/figures.hpp"

namespace amdmb::serve {

struct ServerConfig {
  std::string socket_path;
  std::size_t max_queue = 16;    ///< AMDMB_SERVE_QUEUE.
  unsigned max_inflight = 1;     ///< AMDMB_SERVE_INFLIGHT.
  /// Figure definitions served; null = suite::figures::Registry().
  /// Tests inject a tiny registry with controllable curves here.
  const std::vector<suite::figures::FigureDef>* registry = nullptr;
};

/// Concurrent-sweep bound amdmb_serve uses when neither
/// AMDMB_SERVE_INFLIGHT nor --inflight is given: one sweep per thread of
/// the shared sweep pool (`pool_width`, exec::DefaultThreadCount()),
/// clamped to the [1, 64] range AMDMB_SERVE_INFLIGHT accepts.
unsigned DefaultInflight(unsigned pool_width);

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, listens, and starts the accept loop. A stale
  /// socket file left by a crashed daemon is detected (connect probe
  /// refused) and unlinked; a path owned by a *live* daemon is a typed
  /// ConfigError, never a silent takeover. Throws ConfigError on other
  /// socket errors too.
  void Start();

  /// Stops admission and blocks until every admitted sweep has
  /// finished. Safe from session threads (the "drain" op) and signal
  /// polling loops alike; concurrent callers all block until done.
  void BeginDrain();

  /// True once BeginDrain has been entered (the daemon main polls this
  /// alongside its signal flag).
  bool DrainRequested() const;

  /// BeginDrain + full shutdown: close the listener and every session,
  /// join all threads. Main-thread only (joins session threads).
  void Drain();

  ServeStats Stats() const;
  const std::string& SocketPath() const { return config_.socket_path; }

 private:
  void AcceptLoop();
  void RunSession(std::shared_ptr<Session> session);
  void HandleSubmit(const std::shared_ptr<Session>& session,
                    const Request& request);
  void HandleCharacterize(const std::shared_ptr<Session>& session,
                          const Request& request);
  const suite::figures::FigureDef* FindFigure(const std::string& slug) const;
  void RunSweep(const std::shared_ptr<Session>& session, std::uint64_t id,
                const suite::figures::FigureDef& def, bool quick,
                bool adaptive);
  void RunCharacterize(const std::shared_ptr<Session>& session,
                       std::uint64_t id,
                       const std::shared_ptr<const kerncap::Prepared>& prepared,
                       bool quick, bool adaptive);

  ServerConfig config_;
  Scheduler scheduler_;
  ResultStore store_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stop_accept_{false};
  std::atomic<bool> drain_requested_{false};
  std::once_flag drain_once_;
  std::once_flag shutdown_once_;

  std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> session_threads_;
};

}  // namespace amdmb::serve
