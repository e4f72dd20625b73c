// serve_open — an open loop of Poisson arrivals against a spawned
// amdmb_serve in its default single-process mode (AMDMB_THREADS=2,
// --inflight 2).
//
// The same layers as the other two workloads run here concurrently,
// behind admission and queueing, and with repeated work: quick submits of
// Figs. 7-15b recur across the run (a quarter of them adaptive), fresh
// kerncap_alu kernels are characterized, and stats pings sample the
// queue. Kernel-cache hits are high. Scheduler, inflight, protocol and
// fleet decisions show here and nowhere else.
//
// The rate is fixed at half the capacity measured at the commit that
// introduced the benchmark (see README.md), so the queue is stable and
// latency, not throughput, is what moves.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "adapt/refiner.hpp"
#include "documents.hpp"
#include "generators.hpp"
#include "kerncap/characterize.hpp"
#include "layers.hpp"
#include "open_loop.hpp"
#include "report/json_sink.hpp"
#include "serve/client.hpp"
#include "suite/figures.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace am = amdmb;
namespace figures = amdmb::suite::figures;
using am::serve::Client;
using am::serve::Event;
using am::serve::EventType;

namespace {

/// One round of the mix: every submit figure once, plus these.
constexpr unsigned kCharacterizePerRound = 4;
constexpr unsigned kStatsPerRound = 2;
/// Rounds per second of schedule: 0.5 x (10 + 4) = 7 work requests/s,
/// half the 14/s this mix completes against a saturated daemon on a
/// 4-core x86-64 host (Release build; see README.md to re-measure). At
/// two thirds the queue amplified the host's own speed drift so much that
/// latency spread between runs beyond the benchmark's bound.
constexpr double kRoundsPerSecond = 0.5;
/// Characterized kernels replayed layer by layer in the traced run.
constexpr std::size_t kReplayKernels = 8;
/// A work request slower than this, from its due time, misses the limit
/// (about four times the p90 at the rate above).
constexpr double kLatencyLimitS = 2.0;
/// Daemon configuration under test; it inherits AMDMB_THREADS=2 from the
/// benchmark's own environment (see main.cpp).
constexpr const char* kDaemonInflight = "2";

const std::vector<std::string>& SubmitFigures() {
  static const std::vector<std::string> figures = {
      "fig_7",  "fig_8",  "fig_9",  "fig_10",  "fig_11",
      "fig_12", "fig_13", "fig_14", "fig_15a", "fig_15b"};
  return figures;
}

bool IsWork(const PlannedRequest& r) {
  return r.kind != RequestKind::kStats;
}

/// Two work requests with equal keys ask for the same document.
std::string RequestKey(const PlannedRequest& r) {
  return r.kind == RequestKind::kSubmit ? FigureKey(r.figure, r.adaptive)
                                        : r.kernel.Name();
}

/// A spawned amdmb_serve, stopped (SIGTERM, then SIGKILL after 20 s) and
/// reaped when destroyed.
class Daemon {
 public:
  Daemon(const std::filesystem::path& binary, std::string socket)
      : socket_(std::move(socket)) {
    std::filesystem::remove(socket_);
    const std::string bin = binary.string();
    std::vector<std::string> args = {bin, "--socket", socket_, "--inflight",
                                     kDaemonInflight};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's banner lines go to stderr: stdout is the result.
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    am::Require(rc == 0, "cannot start " + bin);
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects, polling every millisecond until the daemon listens.
  Client Connect() const {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        return Client::Connect(socket_);
      } catch (const am::ConfigError&) {
        am::Require(Clock::now() < deadline && Running(),
                    "amdmb_serve did not start listening");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  int Pid() const { return pid_; }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = 0;
    }
    std::error_code ignored;
    std::filesystem::remove(socket_, ignored);
  }

 private:
  bool Running() const {
    int status = 0;
    return pid_ > 0 && waitpid(pid_, &status, WNOHANG) == 0;
  }

  std::string socket_;
  pid_t pid_ = 0;
};

struct ServeSetup {
  std::vector<PlannedRequest> plan;
  std::vector<double> due_s;
  std::vector<std::string> il;  ///< Per request; empty unless characterize.
  DigestTable figure_reference;
  DigestTable kernel_reference;
  double kernelgen_s = 0.0;
  std::size_t kernels = 0;
};

ServeSetup Setup(const Options& options) {
  ServeSetup setup;
  const double rounds_per_s =
      options.rate > 0.0
          ? options.rate / (SubmitFigures().size() + kCharacterizePerRound)
          : kRoundsPerSecond;
  ServeMix mix;
  mix.figures = SubmitFigures();
  mix.rounds = std::max(1u, static_cast<unsigned>(
                                rounds_per_s * options.seconds + 0.5));
  mix.adaptive_per_figure = (mix.rounds + 2) / 4;
  mix.characterize_per_round = kCharacterizePerRound;
  mix.stats_per_round = kStatsPerRound;
  mix.seconds = options.seconds;
  setup.plan = ServeSchedule(mix, options.seed);
  const Clock::time_point gen_start = Clock::now();
  for (const PlannedRequest& r : setup.plan) {
    setup.due_s.push_back(r.due_s);
    setup.il.push_back(r.kind == RequestKind::kCharacterize ? r.kernel.Il()
                                                            : std::string());
    setup.kernels += r.kind == RequestKind::kCharacterize ? 1 : 0;
  }
  setup.kernelgen_s = Seconds(gen_start, Clock::now());
  setup.figure_reference = LoadDigests(options.reference_dir / "figures.txt");
  setup.kernel_reference = LoadDigests(options.reference_dir / "kernels.txt");
  return setup;
}

std::string SocketPath(const Options& options) {
  std::filesystem::create_directories(options.scratch_dir);
  static int serial = 0;
  return (options.scratch_dir / ("serve-" + std::to_string(getpid()) + "-" +
                                 std::to_string(serial++) + ".sock"))
      .string();
}

/// What the client saw of one request beyond its timestamps.
struct Observed {
  std::string figure_json;  ///< From the done event.
  std::size_t points = 0;
  std::size_t waves = 0;
  std::map<std::string, std::pair<double, double>> spent_dense;  ///< Per curve.
  am::serve::ServeStats stats;  ///< Stats pings only.
};

}  // namespace

void SetupServe(const Options& options, const std::function<void()>& ready) {
  const ServeSetup setup = Setup(options);
  Daemon daemon(options.serve_binary, SocketPath(options));
  Client client = daemon.Connect();
  (void)client.Stats();
  ready();
}

RunResult RunServeOpen(const Options& options) {
  const ServeSetup setup = Setup(options);
  Daemon daemon(options.serve_binary, SocketPath(options));
  const unsigned connections = std::clamp(std::thread::hardware_concurrency(),
                                          1u, 4u);
  std::vector<Client> clients;
  for (unsigned c = 0; c < connections; ++c) {
    clients.push_back(daemon.Connect());
  }
  (void)clients.front().Stats();

  std::vector<Observed> seen(setup.plan.size());
  const auto send = [&](std::size_t i, unsigned c, RequestTiming& t) {
    const PlannedRequest& r = setup.plan[i];
    Observed& o = seen[i];
    if (r.kind == RequestKind::kStats) {
      o.stats = clients[c].Stats();
      t.done = Clock::now();
      t.completed = true;
      return;
    }
    const auto on_event = [&](const Event& e) {
      const Clock::time_point now = Clock::now();
      if (e.type == EventType::kAccepted) t.accepted = now;
      if (e.type == EventType::kPoint) {
        if (o.points++ == 0) t.first_point = now;
        t.last_point = now;
      }
      if (e.type == EventType::kRefine) {
        ++o.waves;
        o.spent_dense[e.body.StringOr("curve", "")] = {
            e.body.NumberOr("spent", 0.0), e.body.NumberOr("dense", 0.0)};
      }
    };
    const Event terminal =
        r.kind == RequestKind::kSubmit
            ? clients[c].Submit(r.figure, true, r.adaptive, 0, on_event)
            : clients[c].Characterize(setup.il[i], true, false, 0, on_event);
    t.done = Clock::now();
    if (terminal.type == EventType::kDone) {
      t.completed = true;
      o.figure_json = terminal.body.StringOr("figure_json", "");
    } else {
      t.detail = std::string(am::serve::ToString(terminal.type)) + ": " +
                 terminal.body.StringOr("reason",
                                        terminal.body.StringOr("message", ""));
    }
  };
  SpanRecorder spans(options.trace);
  const Clock::time_point start = Clock::now();
  const std::vector<RequestTiming> timings =
      RunOpenLoop(setup.due_s, connections, send);
  Clock::time_point last_done = start;
  for (const RequestTiming& t : timings) {
    last_done = std::max(last_done, t.done);
  }
  const double span_s = Seconds(start, last_done);
  const am::serve::ServeStats final_stats = clients.front().Stats();
  const double daemon_rss = ProcessPeakRssMb(daemon.Pid());
  clients.clear();
  daemon.Stop();

  // Correctness: every served document must equal the in-process build
  // of the same request, and that build must match the reference.
  Gate figure_gate(setup.figure_reference);
  Gate kernel_gate(setup.kernel_reference);
  std::map<std::string, std::string> built;  // Request key -> document.
  std::vector<double> characterize_ms;
  const am::exec::SweepExecutor wide(connections);
  for (std::size_t i = 0; i < setup.plan.size(); ++i) {
    const PlannedRequest& r = setup.plan[i];
    if (!IsWork(r) || !timings[i].completed) continue;
    const std::string key = RequestKey(r);
    auto it = built.find(key);
    if (it == built.end()) {
      std::string json;
      if (r.kind == RequestKind::kSubmit) {
        figures::RunOptions run;
        run.quick = true;
        run.executor = &wide;
        am::adapt::Settings settings = am::adapt::Settings::FromEnv();
        if (r.adaptive) run.adaptive = &settings;
        const am::report::Figure figure =
            figures::Build(*figures::Find(r.figure), run);
        const ScopedSpan s(spans, "report.serialize");
        json = am::report::BenchJson(figure);
        figure_gate.Check(key, json);
      } else {
        const Clock::time_point t0 = Clock::now();
        const am::kerncap::AnalyzeResult analyzed =
            am::kerncap::Analyze(setup.il[i]);
        if (analyzed.ok()) {
          am::kerncap::CharacterizeOptions characterize;
          characterize.quick = true;
          characterize.executor = &wide;
          const am::report::Figure figure =
              am::kerncap::Characterize(*analyzed.prepared, characterize);
          characterize_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
          const ScopedSpan s(spans, "report.serialize");
          json = am::report::BenchJson(figure);
        }
        kernel_gate.Check(key, json);
      }
      it = built.emplace(key, std::move(json)).first;
    }
    (r.kind == RequestKind::kSubmit ? figure_gate : kernel_gate)
        .Same(key + " (served)", seen[i].figure_json, it->second);
  }

  std::size_t failed_requests = 0, work = 0, on_time = 0, points = 0,
              characterized = 0, repeats = 0, adaptive = 0, waves = 0;
  double spent = 0, dense = 0;
  std::vector<double> latency_s, late_ms, accept_ms, queue_s, stream_ms,
      stats_ms;
  std::size_t queue_depth_max = 0;
  std::set<std::string> keys_seen;
  std::string first_failure;
  for (std::size_t i = 0; i < setup.plan.size(); ++i) {
    const PlannedRequest& r = setup.plan[i];
    const RequestTiming& t = timings[i];
    const Observed& o = seen[i];
    late_ms.push_back(t.LateSeconds() * 1e3);
    if (!t.completed) {
      ++failed_requests;
      if (first_failure.empty()) {
        first_failure = "request " + std::to_string(i) + ": " + t.detail;
      }
    }
    if (!IsWork(r)) {
      stats_ms.push_back(Seconds(t.sent, t.done) * 1e3);
      queue_depth_max = std::max(queue_depth_max, o.stats.queue_depth);
      spans.Add("serve.stats", t.sent, t.done, i);
      continue;
    }
    ++work;
    repeats += keys_seen.insert(RequestKey(r)).second ? 0 : 1;
    if (!t.completed) continue;
    latency_s.push_back(t.LatencySeconds());
    on_time += t.LatencySeconds() <= kLatencyLimitS ? 1 : 0;
    points += o.points;
    characterized += r.kind == RequestKind::kCharacterize ? 1 : 0;
    accept_ms.push_back(Seconds(t.sent, t.accepted) * 1e3);
    queue_s.push_back(Seconds(t.accepted, t.first_point));
    stream_ms.push_back(Seconds(t.last_point, t.done) * 1e3);
    if (r.adaptive) {
      ++adaptive;
      waves += o.waves;
      for (const auto& [curve, sd] : o.spent_dense) {
        spent += sd.first;
        dense += sd.second;
      }
    }
    spans.Add("serve.request", t.due, t.done, i);
    spans.Add("serve.accept", t.sent, t.accepted, i);
    spans.Add("serve.queue_wait", t.accepted, t.first_point, i);
    spans.Add("serve.stream", t.last_point, t.done, i);
  }

  RunResult result;
  result.attempted =
      setup.plan.size() + figure_gate.Checked() + kernel_gate.Checked();
  result.failed = failed_requests + figure_gate.Failed() + kernel_gate.Failed();
  result.first_failure = !first_failure.empty() ? first_failure
                         : !figure_gate.FirstFailure().empty()
                             ? figure_gate.FirstFailure()
                             : kernel_gate.FirstFailure();
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / v.size();
  };

  if (!options.trace) {
    result.Add("points_per_s", "1/s", points / span_s);
    result.Add("kernels_per_s", "1/s", characterized / span_s);
    result.Add("latency_p50_s", "s", Quantile(latency_s, 50));
    result.Add("latency_p90_s", "s", Quantile(latency_s, 90));
    result.Add("goodput_per_s", "1/s", on_time / span_s);
    result.Add("peak_rss_mb", "MiB", daemon_rss);
    result.AddExtra("offered_work_per_s", "1/s", work / options.seconds);
    result.AddExtra("latency_samples", "count", latency_s.size());
    result.AddExtra("latency_limit_s", "s", kLatencyLimitS);
    result.AddExtra("repeat_share", "ratio",
                    work == 0 ? 0.0 : static_cast<double>(repeats) / work);
    result.AddExtra("loadgen.late_p90_ms", "ms", Quantile(late_ms, 90));
    return result;
  }

  LayerNumbers layers;
  layers.kernel_cache_hits = final_stats.cache_hits;
  layers.kernel_cache_misses = final_stats.cache_misses;
  const std::size_t workload_spans = spans.Spans().size();
  std::vector<std::string> served;
  for (const Observed& o : seen) {
    if (!o.figure_json.empty()) served.push_back(o.figure_json);
  }
  ParseDocuments(served, spans, layers);
  // Replay the served figures' operating points and the first
  // characterized kernels' launches.
  std::vector<ReplayLaunch> launches;
  for (figures::CrossCheckPoint& p : figures::CrossCheckPoints()) {
    if (std::find(SubmitFigures().begin(), SubmitFigures().end(), p.figure) !=
        SubmitFigures().end()) {
      launches.push_back({std::move(p.kernel), p.arch, p.config});
    }
  }
  std::size_t replayed_kernels = 0;
  for (const PlannedRequest& r : setup.plan) {
    if (r.kind != RequestKind::kCharacterize) continue;
    if (replayed_kernels++ == kReplayKernels) break;
    for (ReplayLaunch& l : CharacterizeLaunches(
             am::suite::GenerateGeneric(r.kernel.Generic()),
             {am::kerncap::SweepDomains(true).back()})) {
      launches.push_back(std::move(l));
    }
  }
  ReplayLayers(launches, spans, layers);
  const auto totals = spans.Totals();
  layers.kernelgen_ns =
      setup.kernels == 0 ? 0.0 : setup.kernelgen_s * 1e9 / setup.kernels;
  layers.serialize_ns = MeanNs(totals, "report.serialize");
  layers.parse_ns = MeanNs(totals, "report.parse");
  layers.overhead_frac = workload_spans * SpanCostNs() / (span_s * 1e9);
  result.metrics = LayerMetrics(layers);
  result.extra = ExecuteByBottleneck(layers);
  result.AddExtra("serve.accept_ms", "ms", mean(accept_ms));
  result.AddExtra("serve.queue_wait_s", "s", mean(queue_s));
  result.AddExtra("serve.stream_ms", "ms", mean(stream_ms));
  result.AddExtra("serve.stats_rtt_ms", "ms", mean(stats_ms));
  result.AddExtra("serve.rejected", "count", final_stats.rejected);
  result.AddExtra("serve.queue_depth_max", "count", queue_depth_max);
  result.AddExtra("loadgen.late_p90_ms", "ms", Quantile(late_ms, 90));
  result.AddExtra("adapt.waves", "count",
                  adaptive == 0 ? 0.0 : static_cast<double>(waves) / adaptive);
  result.AddExtra("adapt.spent_ratio", "ratio",
                  dense == 0 ? 0.0 : spent / dense);
  result.AddExtra("kerncap.characterize_ms", "ms", mean(characterize_ms));
  result.AddExtra("mem.cache_probes_per_launch", "count",
                  static_cast<double>(layers.cache_probes) / layers.launches);
  WriteTrace(options, spans);
  return result;
}

}  // namespace perfbench
