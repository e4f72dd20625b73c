#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <utility>

#include "adapt/refiner.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "exec/kernel_cache.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/static_analysis.hpp"
#include "report/json_sink.hpp"
#include "serve/net.hpp"

namespace amdmb::serve {

unsigned DefaultInflight(unsigned pool_width) {
  return std::clamp(pool_width, 1u, 64u);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.max_queue, config_.max_inflight) {
  if (config_.registry == nullptr) {
    config_.registry = &suite::figures::Registry();
  }
  Require(!config_.socket_path.empty(), "serve: empty socket path");
}

Server::~Server() { Drain(); }

void Server::Start() {
  listen_fd_ = MakeListenSocket(config_.socket_path);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::AcceptLoop() {
  while (!stop_accept_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check stop flag.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto session = std::make_shared<Session>(fd);
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stop_accept_.load(std::memory_order_relaxed)) break;
    sessions_.push_back(session);
    session_threads_.emplace_back(
        [this, session = std::move(session)]() mutable {
          RunSession(std::move(session));
        });
  }
}

void Server::RunSession(std::shared_ptr<Session> session) {
  while (std::optional<std::string> line = session->ReadLine()) {
    if (line->empty()) continue;
    Request request;
    try {
      request = ParseRequest(*line);
    } catch (const std::exception& e) {
      session->WriteLine(
          SerializeError(0, ErrorKind::kProtocolError, e.what()));
      continue;
    }
    switch (request.op) {
      case Request::Op::kSubmit:
        HandleSubmit(session, request);
        break;
      case Request::Op::kCharacterize:
        HandleCharacterize(session, request);
        break;
      case Request::Op::kStats:
        session->WriteLine(SerializeStats(Stats()));
        break;
      case Request::Op::kDrain:
        BeginDrain();
        session->WriteLine(SerializeDrained(store_.Completed()));
        break;
    }
  }
  if (session->Overflowed()) {
    // An unterminated or oversized line: answer with a typed error and
    // drop the connection instead of buffering without limit.
    session->WriteLine(SerializeError(
        0, ErrorKind::kProtocolError,
        "request line exceeds " + std::to_string(kMaxLineBytes) +
            " bytes; closing session"));
    session->Close();
  }
}

const suite::figures::FigureDef* Server::FindFigure(
    const std::string& slug) const {
  const std::string key = suite::figures::NormalizeSlug(slug);
  for (const suite::figures::FigureDef& def : *config_.registry) {
    if (suite::figures::NormalizeSlug(def.slug) == key) return &def;
  }
  return nullptr;
}

void Server::HandleSubmit(const std::shared_ptr<Session>& session,
                          const Request& request) {
  const suite::figures::FigureDef* def = FindFigure(request.figure);
  if (def == nullptr) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected("unknown_figure", request.figure));
    return;
  }
  const bool quick = request.quick;
  const bool adaptive = request.adaptive;
  // The worker could pick the job up before the accepted line is on the
  // wire; gate the sweep on it so events always follow the accept.
  auto admitted = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::shared_future<void>>(
      admitted->get_future().share());
  const Scheduler::Ticket ticket = scheduler_.Submit(
      request.priority,
      [this, session, def, quick, adaptive, gate](std::uint64_t id) {
        gate->wait();
        RunSweep(session, id, *def, quick, adaptive);
      });
  if (ticket.admission != Admission::kAccepted) {
    store_.RecordRejected();
    session->WriteLine(
        SerializeRejected(ToString(ticket.admission), def->slug));
    return;
  }
  session->WriteLine(
      SerializeAccepted(ticket.id, def->slug, ticket.queue_depth));
  admitted->set_value();
}

void Server::HandleCharacterize(const std::shared_ptr<Session>& session,
                                const Request& request) {
  // Intake runs inline on the session thread: it is cheap (caps bound
  // it) and the typed verdict must come back before admission, exactly
  // like an unknown figure slug does for submit.
  kerncap::AnalyzeResult analysis;
  try {
    analysis = kerncap::Analyze(request.il);
  } catch (const std::exception& e) {
    // Analyze never throws for malformed input; anything escaping it is
    // an internal bug, reported as such rather than crashing the session.
    session->WriteLine(SerializeError(0, ErrorKind::kSweepFailed, e.what()));
    return;
  }
  if (!analysis.ok()) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected(
        "invalid_kernel", analysis.hash,
        kerncap::ToString(analysis.rejection->reason),
        analysis.rejection->detail));
    return;
  }
  auto prepared = std::make_shared<const kerncap::Prepared>(
      std::move(*analysis.prepared));
  const bool quick = request.quick;
  const bool adaptive = request.adaptive;
  auto admitted = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::shared_future<void>>(
      admitted->get_future().share());
  const Scheduler::Ticket ticket = scheduler_.Submit(
      request.priority,
      [this, session, prepared, quick, adaptive, gate](std::uint64_t id) {
        gate->wait();
        RunCharacterize(session, id, prepared, quick, adaptive);
      });
  if (ticket.admission != Admission::kAccepted) {
    store_.RecordRejected();
    session->WriteLine(SerializeRejected(ToString(ticket.admission),
                                         kerncap::Slug(*prepared)));
    return;
  }
  session->WriteLine(SerializeAccepted(ticket.id, kerncap::Slug(*prepared),
                                       ticket.queue_depth));
  admitted->set_value();
}

void Server::RunSweep(const std::shared_ptr<Session>& session,
                      std::uint64_t id, const suite::figures::FigureDef& def,
                      bool quick, bool adaptive) {
  const auto start = std::chrono::steady_clock::now();
  try {
    suite::figures::RunOptions opts;
    opts.quick = quick;
    // Adaptive requests refine with the worker's env-snapshot knobs and
    // stream one refine event per wave. Curves run sequentially inside
    // Build, so the curve a wave belongs to is the first not-yet-done
    // one (on_wave fires on the sweep thread, before that curve's
    // progress event).
    adapt::Settings settings;
    std::size_t curves_done = 0;
    if (adaptive) {
      settings = adapt::Settings::FromEnv();
      settings.on_wave = [&](const adapt::WaveInfo& w) {
        const std::string& curve = curves_done < def.curves.size()
                                       ? def.curves[curves_done].name
                                       : def.slug;
        session->WriteLine(SerializeRefine(id, curve, w.wave, w.wave_points,
                                           w.points_spent, w.dense_points));
      };
      opts.adaptive = &settings;
    }
    // Stream every new point / profile entry after each curve; emitted
    // counts are tracked per series because a curve's series name can
    // differ from the CurveDef name (Fig. 15's "Pixel/3870" -> "3870").
    std::map<std::string, std::size_t> points_sent;
    std::size_t profiles_sent = 0;
    const report::Figure figure = suite::figures::Build(
        def, opts,
        [&](std::size_t index, std::size_t count, const std::string& curve,
            const report::Figure& so_far) {
          curves_done = index + 1;
          session->WriteLine(SerializeProgress(id, index, count, curve));
          for (const report::Curve& series : so_far.set.All()) {
            std::size_t& sent = points_sent[series.Name()];
            const auto& points = series.Points();
            for (; sent < points.size(); ++sent) {
              session->WriteLine(SerializePoint(
                  id, series.Name(), points[sent].x, points[sent].y));
            }
          }
          for (; profiles_sent < so_far.profiles.size(); ++profiles_sent) {
            const report::ProfileEntry& p = so_far.profiles[profiles_sent];
            session->WriteLine(
                SerializeProfile(id, p.curve, p.point, p.attributed));
          }
        });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
    // Record before the done event: a client that reads done and
    // immediately asks for stats must see this completion counted.
    store_.RecordCompleted(def.slug, wall);
    session->WriteLine(SerializeDone(id, def.slug, wall, cache.hits,
                                     cache.misses,
                                     report::BenchJson(figure)));
  } catch (const std::exception& e) {
    store_.RecordFailed(def.slug);
    session->WriteLine(
        SerializeError(id, ErrorKind::kSweepFailed, e.what()));
  }
}

void Server::RunCharacterize(
    const std::shared_ptr<Session>& session, std::uint64_t id,
    const std::shared_ptr<const kerncap::Prepared>& prepared, bool quick,
    bool adaptive) {
  const std::string slug = kerncap::Slug(*prepared);
  const auto start = std::chrono::steady_clock::now();
  try {
    // Static verdicts stream first — the client gets the SKA view even
    // if it disconnects before the sweep finishes.
    for (const kerncap::ArchStatic& s : prepared->statics) {
      StaticReport report;
      report.arch = kerncap::CardLabel(s.arch);
      report.alu_ops = s.ska.alu_ops;
      report.fetch_ops = s.ska.fetch_ops;
      report.write_ops = s.ska.write_ops;
      report.alu_fetch_ratio = s.ska.alu_fetch_ratio;
      report.gpr_count = s.ska.gpr_count;
      report.theoretical_wavefronts = s.ska.theoretical_wavefronts;
      report.resident_wavefronts = s.ska.resident_wavefronts;
      report.bound = std::string(compiler::ToString(s.ska.bound));
      session->WriteLine(SerializeStatic(id, report));
    }
    kerncap::CharacterizeOptions opts;
    opts.quick = quick;
    // Same wave attribution scheme as RunSweep, over the kernel's
    // eligible (arch, mode) curves.
    adapt::Settings settings;
    std::size_t curves_done = 0;
    std::vector<suite::CurveKey> curves;
    if (adaptive) {
      curves = kerncap::EligibleCurves(prepared->kernel);
      settings = adapt::Settings::FromEnv();
      settings.on_wave = [&](const adapt::WaveInfo& w) {
        const std::string curve = curves_done < curves.size()
                                      ? curves[curves_done].Name()
                                      : slug;
        session->WriteLine(SerializeRefine(id, curve, w.wave, w.wave_points,
                                           w.points_spent, w.dense_points));
      };
      opts.adaptive = &settings;
    }
    std::map<std::string, std::size_t> points_sent;
    std::size_t profiles_sent = 0;
    const report::Figure figure = kerncap::Characterize(
        *prepared, opts,
        [&](std::size_t index, std::size_t count, const std::string& curve,
            const report::Figure& so_far) {
          curves_done = index + 1;
          session->WriteLine(SerializeProgress(id, index, count, curve));
          for (const report::Curve& series : so_far.set.All()) {
            std::size_t& sent = points_sent[series.Name()];
            const auto& points = series.Points();
            for (; sent < points.size(); ++sent) {
              session->WriteLine(SerializePoint(
                  id, series.Name(), points[sent].x, points[sent].y));
            }
          }
          for (; profiles_sent < so_far.profiles.size(); ++profiles_sent) {
            const report::ProfileEntry& p = so_far.profiles[profiles_sent];
            session->WriteLine(
                SerializeProfile(id, p.curve, p.point, p.attributed));
          }
        });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
    // Same ordering contract as RunSweep: count first, then announce.
    store_.RecordCompleted(slug, wall);
    session->WriteLine(SerializeDone(id, slug, wall, cache.hits,
                                     cache.misses,
                                     report::BenchJson(figure)));
  } catch (const std::exception& e) {
    store_.RecordFailed(slug);
    session->WriteLine(
        SerializeError(id, ErrorKind::kSweepFailed, e.what()));
  }
}

ServeStats Server::Stats() const {
  ServeStats stats;
  stats.version = std::string(SuiteVersion());
  stats.queue_depth = scheduler_.QueueDepth();
  stats.in_flight = scheduler_.InFlight();
  stats.max_queue = scheduler_.MaxQueue();
  stats.max_inflight = scheduler_.MaxInflight();
  stats.completed = store_.Completed();
  stats.failed = store_.Failed();
  stats.rejected = store_.Rejected();
  const exec::KernelCacheStats cache = exec::KernelCache::Shared().Stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_hit_rate = cache.HitRate();
  stats.cache_size = exec::KernelCache::Shared().Size();
  stats.launch_hits = cache.launch_hits;
  stats.launch_misses = cache.launch_misses;
  stats.latencies = store_.Latencies();
  return stats;
}

bool Server::DrainRequested() const {
  return drain_requested_.load(std::memory_order_relaxed);
}

void Server::BeginDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  // call_once blocks concurrent callers until the active drain finishes,
  // so every BeginDrain return means "all admitted sweeps are done".
  std::call_once(drain_once_, [this] {
    scheduler_.StopAdmission();
    scheduler_.WaitIdle();
  });
}

void Server::Drain() {
  BeginDrain();
  std::call_once(shutdown_once_, [this] {
    stop_accept_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(config_.socket_path.c_str());
      listen_fd_ = -1;
    }
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions.swap(sessions_);
      threads.swap(session_threads_);
    }
    for (const std::shared_ptr<Session>& session : sessions) {
      session->Close();  // Unblocks ReadLine.
    }
    for (std::thread& thread : threads) thread.join();
    scheduler_.Shutdown();
  });
}

}  // namespace amdmb::serve
