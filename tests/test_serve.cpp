// Tests for the serve layer: the NDJSON wire protocol, figure-registry
// lookups, the bounded FIFO-with-priority scheduler, the daemon end to
// end over a real Unix-domain socket (byte-compatibility with the
// standalone bench output, kernel-cache reuse, deterministic overload
// and drain rejections, and event-stream determinism across runs).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/status.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "report/json_sink.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "suite/figures.hpp"

namespace amdmb::serve {
namespace {

using suite::figures::CurveDef;
using suite::figures::FigureDef;
using suite::figures::Find;
using suite::figures::NormalizeSlug;
using suite::figures::Registry;
using suite::figures::RunOptions;

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, SubmitRequestRoundTrips) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.figure = "fig_7";
  request.quick = true;
  request.priority = 2;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_EQ(back.op, Request::Op::kSubmit);
  EXPECT_EQ(back.figure, "fig_7");
  EXPECT_TRUE(back.quick);
  EXPECT_EQ(back.priority, 2);
}

TEST(ServeProtocol, StatsAndDrainRequestsRoundTrip) {
  Request stats;
  stats.op = Request::Op::kStats;
  EXPECT_EQ(ParseRequest(SerializeRequest(stats)).op, Request::Op::kStats);
  Request drain;
  drain.op = Request::Op::kDrain;
  EXPECT_EQ(ParseRequest(SerializeRequest(drain)).op, Request::Op::kDrain);
}

TEST(ServeProtocol, ParseRequestRejectsMalformedLines) {
  EXPECT_THROW(ParseRequest("not json"), ConfigError);
  EXPECT_THROW(ParseRequest("[1,2]"), ConfigError);
  EXPECT_THROW(ParseRequest("{}"), ConfigError);
  EXPECT_THROW(ParseRequest(R"({"op":"frobnicate"})"), ConfigError);
  // A submit without a figure slug has nothing to run.
  EXPECT_THROW(ParseRequest(R"({"op":"submit"})"), ConfigError);
  // Priorities are integers; silently truncating 1.5 would reorder.
  EXPECT_THROW(
      ParseRequest(R"({"op":"submit","figure":"fig_7","priority":1.5})"),
      ConfigError);
}

TEST(ServeProtocol, EventSerializersRoundTrip) {
  Event e = ParseEvent(SerializeAccepted(7, "fig_7", 3));
  EXPECT_EQ(e.type, EventType::kAccepted);
  EXPECT_EQ(e.body.NumberOr("request", 0.0), 7.0);
  EXPECT_EQ(e.body.StringOr("figure", ""), "fig_7");
  EXPECT_EQ(e.body.NumberOr("queue_depth", -1.0), 3.0);

  e = ParseEvent(SerializeRejected("overloaded", "fig_9"));
  EXPECT_EQ(e.type, EventType::kRejected);
  EXPECT_EQ(e.body.StringOr("reason", ""), "overloaded");

  e = ParseEvent(SerializeProgress(7, 1, 10, "4870 Pixel Float"));
  EXPECT_EQ(e.type, EventType::kProgress);
  EXPECT_EQ(e.body.NumberOr("index", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("count", -1.0), 10.0);
  EXPECT_EQ(e.body.StringOr("curve", ""), "4870 Pixel Float");

  e = ParseEvent(SerializePoint(7, "3870", 0.25, 0.7245));
  EXPECT_EQ(e.type, EventType::kPoint);
  EXPECT_EQ(e.body.NumberOr("x", 0.0), 0.25);
  EXPECT_EQ(e.body.NumberOr("y", 0.0), 0.7245);

  e = ParseEvent(SerializeProfile(7, "3870", "alufetch_r0.25", "alu"));
  EXPECT_EQ(e.type, EventType::kProfile);
  EXPECT_EQ(e.body.StringOr("bottleneck", ""), "alu");

  e = ParseEvent(SerializeDone(7, "fig_7", 1.25, 48, 32, "{\"a\": 1}\n"));
  EXPECT_EQ(e.type, EventType::kDone);
  EXPECT_EQ(e.body.NumberOr("wall_seconds", 0.0), 1.25);
  EXPECT_EQ(e.body.NumberOr("cache_hits", 0.0), 48.0);
  EXPECT_EQ(e.body.NumberOr("cache_misses", 0.0), 32.0);
  // The embedded figure document survives escaping byte for byte.
  EXPECT_EQ(e.body.StringOr("figure_json", ""), "{\"a\": 1}\n");

  e = ParseEvent(SerializeError(7, ErrorKind::kSweepFailed,
                                "sweep exploded"));
  EXPECT_EQ(e.type, EventType::kError);
  EXPECT_EQ(e.body.StringOr("kind", ""), "sweep_failed");
  EXPECT_EQ(e.body.StringOr("message", ""), "sweep exploded");

  e = ParseEvent(SerializeDrained(12));
  EXPECT_EQ(e.type, EventType::kDrained);
  EXPECT_EQ(e.body.NumberOr("completed", 0.0), 12.0);
}

TEST(ServeProtocol, AdaptiveFlagRoundTripsAndStaysOffDenseWires) {
  Request request;
  request.op = Request::Op::kSubmit;
  request.figure = "fig_7";
  // Dense requests serialize without the key at all, so request lines
  // from pre-adaptive clients stay byte-identical.
  EXPECT_EQ(SerializeRequest(request).find("adaptive"), std::string::npos);
  EXPECT_FALSE(ParseRequest(SerializeRequest(request)).adaptive);

  request.adaptive = true;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_TRUE(back.adaptive);

  Request characterize;
  characterize.op = Request::Op::kCharacterize;
  characterize.il = "il_ps_2_0\nend\n";
  characterize.adaptive = true;
  EXPECT_TRUE(ParseRequest(SerializeRequest(characterize)).adaptive);
}

TEST(ServeProtocol, RefineEventRoundTrips) {
  const Event e =
      ParseEvent(SerializeRefine(9, "4870 Pixel Float", 2, 3, 9, 32));
  EXPECT_EQ(e.type, EventType::kRefine);
  EXPECT_EQ(e.body.NumberOr("request", 0.0), 9.0);
  EXPECT_EQ(e.body.StringOr("curve", ""), "4870 Pixel Float");
  EXPECT_EQ(e.body.NumberOr("wave", -1.0), 2.0);
  EXPECT_EQ(e.body.NumberOr("points", -1.0), 3.0);
  EXPECT_EQ(e.body.NumberOr("spent", -1.0), 9.0);
  EXPECT_EQ(e.body.NumberOr("dense", -1.0), 32.0);
  EXPECT_EQ(ToString(EventType::kRefine), "refine");
}

TEST(ServeProtocol, NamesEveryErrorKind) {
  EXPECT_EQ(ToString(ErrorKind::kSweepFailed), "sweep_failed");
  EXPECT_EQ(ToString(ErrorKind::kProtocolError), "protocol_error");
}

TEST(ServeProtocol, ParseEventRejectsUnknownTags) {
  EXPECT_THROW(ParseEvent("not json"), ConfigError);
  EXPECT_THROW(ParseEvent(R"({"event":"mystery"})"), ConfigError);
  EXPECT_THROW(ParseEvent(R"({"no_event_key":1})"), ConfigError);
}

TEST(ServeProtocol, StatsRoundTripPreservesEveryField) {
  ServeStats stats;
  stats.version = "abc123-dirty";
  stats.queue_depth = 3;
  stats.in_flight = 2;
  stats.max_queue = 16;
  stats.max_inflight = 4;
  stats.completed = 10;
  stats.failed = 1;
  stats.rejected = 2;
  stats.cache_hits = 128;
  stats.cache_misses = 32;
  stats.cache_hit_rate = 0.8;
  stats.cache_size = 32;
  stats.launch_hits = 96;
  stats.launch_misses = 64;
  stats.latencies = {{"fig_11", 4, 0.5, 0.9, 0.99}, {"fig_7", 6, 1.5, 2.0,
                                                     2.5}};
  const Event event = ParseEvent(SerializeStats(stats));
  ASSERT_EQ(event.type, EventType::kStats);
  const ServeStats back = ParseStats(event.body);
  EXPECT_EQ(back.version, stats.version);
  EXPECT_EQ(back.queue_depth, stats.queue_depth);
  EXPECT_EQ(back.in_flight, stats.in_flight);
  EXPECT_EQ(back.max_queue, stats.max_queue);
  EXPECT_EQ(back.max_inflight, stats.max_inflight);
  EXPECT_EQ(back.completed, stats.completed);
  EXPECT_EQ(back.failed, stats.failed);
  EXPECT_EQ(back.rejected, stats.rejected);
  EXPECT_EQ(back.cache_hits, stats.cache_hits);
  EXPECT_EQ(back.cache_misses, stats.cache_misses);
  EXPECT_DOUBLE_EQ(back.cache_hit_rate, stats.cache_hit_rate);
  EXPECT_EQ(back.cache_size, stats.cache_size);
  EXPECT_EQ(back.launch_hits, stats.launch_hits);
  EXPECT_EQ(back.launch_misses, stats.launch_misses);
  EXPECT_EQ(back.latencies, stats.latencies);
}

// ---------------------------------------------------------------- registry

TEST(FigureRegistry, NormalizeSlugUnifiesSpellings) {
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("fig07"));
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("Fig7"));
  EXPECT_EQ(NormalizeSlug("fig_7"), NormalizeSlug("Fig. 7"));
  EXPECT_EQ(NormalizeSlug("fig_15a"), NormalizeSlug("Fig15A"));
  EXPECT_NE(NormalizeSlug("fig_7"), NormalizeSlug("fig_17"));
  EXPECT_NE(NormalizeSlug("fig_15a"), NormalizeSlug("fig_15b"));
  // A run of zeros is a value, not padding.
  EXPECT_EQ(NormalizeSlug("fig00"), NormalizeSlug("fig0"));
  EXPECT_NE(NormalizeSlug("fig0"), NormalizeSlug("fig"));
}

TEST(FigureRegistry, CoversFigures7Through17) {
  std::vector<std::string> slugs;
  for (const FigureDef& def : Registry()) slugs.push_back(def.slug);
  const std::vector<std::string> expected = {
      "fig_7",  "fig_8",  "fig_9",   "fig_10",  "fig_11", "fig_12",
      "fig_13", "fig_14", "fig_15a", "fig_15b", "fig_16", "fig_17"};
  EXPECT_EQ(slugs, expected);
  for (const FigureDef& def : Registry()) {
    EXPECT_EQ(def.slug, report::FigureSlug(def.id)) << def.id;
    EXPECT_FALSE(def.curves.empty()) << def.slug;
    EXPECT_FALSE(def.bench_prefix.empty()) << def.slug;
  }
}

TEST(FigureRegistry, FindAcceptsAnySpelling) {
  const FigureDef* canonical = Find("fig_7");
  ASSERT_NE(canonical, nullptr);
  EXPECT_EQ(Find("fig07"), canonical);
  EXPECT_EQ(Find("Fig7"), canonical);
  EXPECT_EQ(Find("FIG_07"), canonical);
  EXPECT_EQ(Find("fig_99"), nullptr);
  EXPECT_EQ(Find(""), nullptr);
}

// --------------------------------------------------------------- scheduler

TEST(SchedulerToString, NamesEveryAdmission) {
  EXPECT_EQ(ToString(Admission::kAccepted), "accepted");
  EXPECT_EQ(ToString(Admission::kRejectedOverloaded), "overloaded");
  EXPECT_EQ(ToString(Admission::kRejectedDraining), "draining");
}

TEST(SchedulerTest, RunsJobsAndWaitsIdle) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    const auto ticket =
        scheduler.Submit(0, [&](std::uint64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ticket.admission, Admission::kAccepted);
  }
  scheduler.StopAdmission();
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
  EXPECT_EQ(scheduler.InFlight(), 0u);
}

TEST(SchedulerTest, PopsByPriorityThenArrivalOrder) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/1);
  // Block the single worker so the later submits queue up and the pop
  // order is decided purely by the scheduler, not by timing.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); });

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto note = [&](std::string name) {
    return [&, name = std::move(name)](std::uint64_t) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(name);
    };
  };
  scheduler.Submit(0, note("low-a"));
  scheduler.Submit(2, note("high-a"));
  scheduler.Submit(1, note("mid"));
  scheduler.Submit(2, note("high-b"));
  scheduler.Submit(0, note("low-b"));
  release.set_value();
  scheduler.StopAdmission();
  scheduler.WaitIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"high-a", "high-b", "mid",
                                             "low-a", "low-b"}));
}

TEST(SchedulerTest, OverloadRejectionIsDeterministic) {
  // ISSUE acceptance case: queue 1, inflight 1 — the first request may
  // run, the second may wait, the third must be rejected "overloaded"
  // no matter how fast the worker is, because admission counts
  // outstanding work (queued + in-flight), not queue occupancy.
  Scheduler scheduler(/*max_queue=*/1, /*max_inflight=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  EXPECT_EQ(scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); })
                .admission,
            Admission::kAccepted);
  EXPECT_EQ(scheduler.Submit(0, [](std::uint64_t) {}).admission,
            Admission::kAccepted);
  const auto third = scheduler.Submit(0, [](std::uint64_t) {
    FAIL() << "an overloaded submit must never execute";
  });
  EXPECT_EQ(third.admission, Admission::kRejectedOverloaded);
  release.set_value();
  scheduler.StopAdmission();
  scheduler.WaitIdle();
}

TEST(SchedulerTest, StopAdmissionRejectsButFinishesAdmittedJobs) {
  Scheduler scheduler(/*max_queue=*/4, /*max_inflight=*/1);
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  scheduler.Submit(0, [&, gate](std::uint64_t) {
    gate.wait();
    ran.fetch_add(1);
  });
  scheduler.Submit(0, [&](std::uint64_t) { ran.fetch_add(1); });
  scheduler.StopAdmission();
  EXPECT_EQ(scheduler.Submit(0, [](std::uint64_t) {}).admission,
            Admission::kRejectedDraining);
  release.set_value();
  scheduler.WaitIdle();
  // Both admitted jobs finished; the rejected one never ran.
  EXPECT_EQ(ran.load(), 2);
}

TEST(SchedulerTest, AssignsMonotonicRequestIds) {
  Scheduler scheduler(/*max_queue=*/8, /*max_inflight=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const auto a = scheduler.Submit(0, [gate](std::uint64_t) { gate.wait(); });
  const auto b = scheduler.Submit(0, [](std::uint64_t) {});
  const auto c = scheduler.Submit(0, [](std::uint64_t) {});
  EXPECT_LT(a.id, b.id);
  EXPECT_LT(b.id, c.id);
  release.set_value();
  scheduler.Shutdown();
}

// ------------------------------------------------------------ result store

TEST(ResultStoreTest, EvictsLatencySamplesBeyondTheWindow) {
  ResultStore store(/*window=*/4);
  for (int i = 0; i < 10; ++i) {
    store.RecordCompleted("fig_91", 0.1 * static_cast<double>(i));
  }
  EXPECT_EQ(store.Completed(), 10u);
  EXPECT_EQ(store.RetainedSamples("fig_91"), 4u);
  const std::vector<FigureLatency> latencies = store.Latencies();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].count, 10u);  // Cumulative, not windowed.
  // Percentiles cover only the four retained samples {0.6 .. 0.9}: the
  // early small latencies were evicted FIFO.
  EXPECT_GE(latencies[0].p50_seconds, 0.6);
  EXPECT_LE(latencies[0].p99_seconds, 0.9 + 1e-12);
}

// ---------------------------------------------------------------- session

TEST(ServeSession, BoundedReadTimesOutAndKeepsPartialInput) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Session reader(fds[0]);
  std::string line;
  EXPECT_EQ(reader.ReadLine(&line, 10), ReadStatus::kTimeout);
  ASSERT_EQ(::send(fds[1], "par", 3, 0), 3);
  EXPECT_EQ(reader.ReadLine(&line, 10), ReadStatus::kTimeout);
  ASSERT_EQ(::send(fds[1], "tial\nnext\n", 10, 0), 10);
  ASSERT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kLine);
  EXPECT_EQ(line, "partial");  // The pre-timeout prefix was kept.
  ASSERT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kLine);
  EXPECT_EQ(line, "next");
  ::close(fds[1]);
  EXPECT_EQ(reader.ReadLine(&line, 1000), ReadStatus::kClosed);
}

// ------------------------------------------------------------ end to end

/// A tiny controllable registry: two deterministic curves that append
/// fixed points, plus a "blocking" figure whose curve waits on a shared
/// gate (for overload tests) — no simulator work, so these tests are
/// fast and timing-independent.
struct TestRegistry {
  std::shared_ptr<std::promise<void>> release =
      std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  std::vector<FigureDef> defs;

  TestRegistry() {
    FigureDef tiny;
    tiny.slug = "fig_91";
    tiny.bench_prefix = "Fig91";
    tiny.id = "Fig. 91 — Serve Test";
    tiny.title = "Serve Test";
    tiny.x_label = "x";
    tiny.y_label = "y";
    tiny.paper_claim = "none";
    tiny.what = "serve test fixture";
    tiny.curves.push_back(
        {"alpha", [](report::Figure& figure, const RunOptions& opts) {
           Series& series = figure.set.Get("alpha");
           series.Add(1.0, 10.0);
           if (!opts.quick) series.Add(2.0, 20.0);
           return series.Points().back().y;
         }});
    tiny.curves.push_back(
        {"beta", [](report::Figure& figure, const RunOptions&) {
           figure.set.Get("beta").Add(1.0, 100.0);
           figure.findings.push_back({report::FindingKind::kPlateau,
                                      "beta", "peak", 100.0, "y", ""});
           return 100.0;
         }});
    defs.push_back(std::move(tiny));

    FigureDef blocking;
    blocking.slug = "fig_92";
    blocking.bench_prefix = "Fig92";
    blocking.id = "Fig. 92 — Serve Block Test";
    blocking.title = "Serve Block Test";
    blocking.x_label = "x";
    blocking.y_label = "y";
    blocking.paper_claim = "none";
    blocking.what = "blocks until the test releases it";
    blocking.curves.push_back(
        {"wait", [gate = gate](report::Figure& figure, const RunOptions&) {
           gate.wait();
           figure.set.Get("wait").Add(1.0, 1.0);
           return 1.0;
         }});
    defs.push_back(std::move(blocking));

    FigureDef failing;
    failing.slug = "fig_93";
    failing.bench_prefix = "Fig93";
    failing.id = "Fig. 93 — Serve Error Test";
    failing.title = "Serve Error Test";
    failing.x_label = "x";
    failing.y_label = "y";
    failing.paper_claim = "none";
    failing.what = "throws mid-sweep";
    failing.curves.push_back(
        {"boom", [](report::Figure&, const RunOptions&) -> double {
           throw ConfigError("synthetic sweep failure");
         }});
    defs.push_back(std::move(failing));
  }
};

std::string TestSocketPath(const char* name) {
  std::ostringstream os;
  os << ::testing::TempDir() << "amdmb_test_" << ::getpid() << "_" << name
     << ".sock";
  return os.str();
}

TEST(ServeServer, EndToEndDoneMatchesDirectBuildByteForByte) {
  TestRegistry registry;
  registry.release->set_value();  // Nothing should block in this test.
  ServerConfig config;
  config.socket_path = TestSocketPath("bytes");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  RunOptions opts;
  opts.quick = true;
  const std::string expected =
      report::BenchJson(suite::figures::Build(registry.defs[0], opts));

  Client client = Client::Connect(config.socket_path);
  std::vector<EventType> streamed;
  const Event done =
      client.Submit("fig_91", /*quick=*/true, /*priority=*/0,
                    [&](const Event& event) { streamed.push_back(event.type); });
  ASSERT_EQ(done.type, EventType::kDone);
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);
  // accepted, one progress + one point per curve.
  EXPECT_EQ(streamed,
            (std::vector<EventType>{EventType::kAccepted, EventType::kProgress,
                                    EventType::kPoint, EventType::kProgress,
                                    EventType::kPoint}));
  server.Drain();
}

TEST(ServeServer, QuickFlagComesFromTheRequestNotTheEnvironment) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("quick");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event quick = client.Submit("fig_91", true, 0);
  const Event full = client.Submit("fig_91", false, 0);
  ASSERT_EQ(quick.type, EventType::kDone);
  ASSERT_EQ(full.type, EventType::kDone);
  const std::string quick_json = quick.body.StringOr("figure_json", "");
  const std::string full_json = full.body.StringOr("figure_json", "");
  EXPECT_NE(quick_json, full_json);  // The full sweep has an extra point.
  EXPECT_NE(quick_json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(full_json.find("\"quick\": false"), std::string::npos);
  server.Drain();
}

TEST(ServeServer, AdaptiveSubmitStreamsRefineEventsAndMatchesDirectBuild) {
  // Real registry: the synthetic test figures ignore opts.adaptive, so
  // this runs the smallest real figure adaptively at quick scale.
  ServerConfig config;
  config.socket_path = TestSocketPath("adaptive");
  Server server(config);
  server.Start();

  adapt::Settings settings;  // Matches the daemon's env-default snapshot.
  RunOptions opts;
  opts.quick = true;
  opts.adaptive = &settings;
  const suite::figures::FigureDef* def = suite::figures::Find("fig_7");
  ASSERT_NE(def, nullptr);
  const std::string expected =
      report::BenchJson(suite::figures::Build(*def, opts));

  Client client = Client::Connect(config.socket_path);
  std::size_t refines = 0;
  const Event done = client.Submit(
      "fig_7", /*quick=*/true, /*adaptive=*/true, /*priority=*/0,
      [&](const Event& event) {
        if (event.type == EventType::kRefine) {
          ++refines;
          EXPECT_FALSE(event.body.StringOr("curve", "").empty());
          EXPECT_GT(event.body.NumberOr("dense", 0.0), 0.0);
        }
      });
  ASSERT_EQ(done.type, EventType::kDone);
  // Served adaptive documents are byte-identical to a direct adaptive
  // build, and the stream carried at least one refine wave per curve.
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);
  EXPECT_GE(refines, def->curves.size());
  EXPECT_NE(done.body.StringOr("figure_json", "").find("\"adaptive\": true"),
            std::string::npos);

  // A dense submit through the same daemon stays dense.
  const Event dense = client.Submit("fig_7", true, 0);
  ASSERT_EQ(dense.type, EventType::kDone);
  EXPECT_EQ(dense.body.StringOr("figure_json", "").find("\"adaptive\""),
            std::string::npos);
  server.Drain();
}

TEST(ServeServer, UnknownFigureIsRejectedWithoutSideEffects) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("unknown");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event rejected = client.Submit("fig_404", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "unknown_figure");
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 0u);
  server.Drain();
}

TEST(ServeServer, SweepErrorIsReportedNotFatal) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("error");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event error = client.Submit("fig_93", true, 0);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_NE(error.body.StringOr("message", "").find("synthetic"),
            std::string::npos);
  // The daemon survives: the next request on the same session works.
  const Event done = client.Submit("fig_91", true, 0);
  EXPECT_EQ(done.type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  server.Drain();
}

TEST(ServeServer, ThirdRequestOverloadsAOneDeepQueue) {
  TestRegistry registry;
  ServerConfig config;
  config.socket_path = TestSocketPath("overload");
  config.max_queue = 1;
  config.max_inflight = 1;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  // Separate sessions so the rejected submit is not stuck behind the
  // first one's event stream.
  Client first = Client::Connect(config.socket_path);
  Client second = Client::Connect(config.socket_path);
  Client third = Client::Connect(config.socket_path);

  std::promise<void> first_accepted;
  std::thread first_thread([&] {
    first.Submit("fig_92", true, 0, [&](const Event& event) {
      if (event.type == EventType::kAccepted) first_accepted.set_value();
    });
  });
  first_accepted.get_future().wait();  // In flight, blocked on the gate.

  std::promise<void> second_accepted;
  std::thread second_thread([&] {
    second.Submit("fig_92", true, 0, [&](const Event& event) {
      if (event.type == EventType::kAccepted) second_accepted.set_value();
    });
  });
  second_accepted.get_future().wait();  // Queued: capacity is now full.

  const Event rejected = third.Submit("fig_92", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "overloaded");

  registry.release->set_value();
  first_thread.join();
  second_thread.join();
  const ServeStats stats = third.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  server.Drain();
}

TEST(ServeServer, DrainRejectsNewSubmitsAndReportsCompleted) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("drain");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  EXPECT_FALSE(server.DrainRequested());
  EXPECT_EQ(client.Drain(), 1u);  // One request had completed.
  EXPECT_TRUE(server.DrainRequested());

  const Event rejected = client.Submit("fig_91", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "draining");
  server.Drain();
}

/// Projects an event stream onto its deterministic fields (wall-clock
/// seconds and cache totals vary run to run; everything else must not).
std::vector<std::string> DeterministicProjection(
    const std::vector<Event>& events) {
  std::vector<std::string> out;
  for (const Event& event : events) {
    std::ostringstream os;
    os << ToString(event.type);
    switch (event.type) {
      case EventType::kAccepted:
        os << " " << event.body.StringOr("figure", "");
        break;
      case EventType::kProgress:
        os << " " << event.body.NumberOr("index", -1.0) << "/"
           << event.body.NumberOr("count", -1.0) << " "
           << event.body.StringOr("curve", "");
        break;
      case EventType::kPoint:
        os << " " << event.body.StringOr("curve", "") << " "
           << event.body.NumberOr("x", 0.0) << " "
           << event.body.NumberOr("y", 0.0);
        break;
      case EventType::kDone:
        os << " " << event.body.StringOr("figure", "") << " "
           << event.body.StringOr("figure_json", "");
        break;
      default:
        break;
    }
    out.push_back(os.str());
  }
  return out;
}

TEST(ServeServer, EventStreamIsDeterministicAcrossRuns) {
  // Same request sequence, serial execution (inflight 1, concurrency 1)
  // → identical event streams modulo wall-clock fields, across two
  // independent daemon instances.
  const auto run = [](const char* tag) {
    TestRegistry registry;
    registry.release->set_value();
    ServerConfig config;
    config.socket_path = TestSocketPath(tag);
    config.max_inflight = 1;
    config.registry = &registry.defs;
    Server server(config);
    server.Start();
    Client client = Client::Connect(config.socket_path);
    std::vector<Event> events;
    for (const bool quick : {true, false, true}) {
      const Event done = client.Submit(
          "fig_91", quick, 0,
          [&](const Event& event) { events.push_back(event); });
      events.push_back(done);
    }
    server.Drain();
    return DeterministicProjection(events);
  };
  EXPECT_EQ(run("det_a"), run("det_b"));
}

TEST(ServeServer, StatsReportCountsAndLimits) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("stats");
  config.max_queue = 5;
  config.max_inflight = 2;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  ASSERT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_FALSE(stats.version.empty());
  EXPECT_EQ(stats.max_queue, 5u);
  EXPECT_EQ(stats.max_inflight, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  ASSERT_EQ(stats.latencies.size(), 1u);
  EXPECT_EQ(stats.latencies[0].figure, "fig_91");
  EXPECT_EQ(stats.latencies[0].count, 2u);
  EXPECT_LE(stats.latencies[0].p50_seconds, stats.latencies[0].p99_seconds);
  server.Drain();
}

TEST(ServeServer, LoadGeneratorIsDeterministicAndCompletes) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("loadgen");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  LoadGenOptions options;
  options.socket_path = config.socket_path;
  options.requests = 6;
  options.concurrency = 2;
  options.seed = 42;
  options.figures = {"fig_91"};
  const LoadGenReport report = RunLoadGenerator(options);
  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_LE(report.p50_seconds, report.p99_seconds);
  server.Drain();
}

TEST(ServeServer, DefaultInflightIsThePoolWidthClampedTo1Through64) {
  EXPECT_EQ(DefaultInflight(0), 1u);
  EXPECT_EQ(DefaultInflight(1), 1u);
  EXPECT_EQ(DefaultInflight(4), 4u);
  EXPECT_EQ(DefaultInflight(64), 64u);
  EXPECT_EQ(DefaultInflight(4096), 64u);
}

TEST(ServeClient, ConnectToMissingSocketIsATypedError) {
  EXPECT_THROW(Client::Connect(TestSocketPath("nobody_listens")),
               ConfigError);
}

TEST(ServeClient, ConnectRetriesRideOutALateBindingDaemon) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("late_bind");
  config.registry = &registry.defs;
  Server server(config);
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    server.Start();
  });
  // The fail-fast default would throw here; retries (50 ms backoff,
  // doubling, 1 s cap) ride out the bind race.
  Client client = Client::Connect(config.socket_path, /*retries=*/8);
  starter.join();
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

// -------------------------------------------------------- socket hygiene

TEST(ServeNet, StaleSocketFileIsRecoveredOnStartup) {
  const std::string path = TestSocketPath("stale");
  // A crashed daemon leaves its socket file behind: bind, then close
  // the descriptor without unlinking the path.
  const int crashed = MakeListenSocket(path);
  ASSERT_GE(crashed, 0);
  ::close(crashed);
  // The next daemon probes the file, finds no listener, and rebinds.
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = path;
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  Client client = Client::Connect(path);
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

TEST(ServeNet, LiveDaemonSocketIsNeverStolen) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("live");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  try {
    MakeListenSocket(config.socket_path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("live daemon"), std::string::npos);
  }
  // The incumbent is unharmed by the refused takeover.
  Client client = Client::Connect(config.socket_path);
  EXPECT_EQ(client.Submit("fig_91", true, 0).type, EventType::kDone);
  server.Drain();
}

// ------------------------------------------------------- protocol limits

TEST(ServeServer, MalformedRequestLineGetsTypedProtocolError) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("badline");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  Session raw(fd);
  // Garbage, and ops the protocol does not define.
  for (const char* bad :
       {"this is not json", R"({"op":"ping","seq":1})",
        R"({"op":"kill_worker","worker":0})"}) {
    SCOPED_TRACE(bad);
    ASSERT_TRUE(raw.WriteLine(bad));
    std::string line;
    ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
    const Event error = ParseEvent(line);
    ASSERT_EQ(error.type, EventType::kError);
    EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
    // One bad line does not poison the session.
    ASSERT_TRUE(raw.WriteLine(R"({"op":"stats"})"));
    ASSERT_EQ(raw.ReadLine(&line, 5000), ReadStatus::kLine);
    EXPECT_EQ(ParseEvent(line).type, EventType::kStats);
  }
  server.Drain();
}

TEST(ServeServer, DeeplyNestedRequestGetsTypedProtocolError) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("nesting");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  // One ~2 MB request line of '[' (a nesting bomb for a recursive JSON
  // parser) gets a typed protocol_error, and the daemon still answers
  // stats on the same connection.
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  Session raw(fd);
  ASSERT_TRUE(raw.WriteLine(std::string(2u << 20, '[')));
  std::string line;
  ASSERT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kLine);
  const Event error = ParseEvent(line);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
  EXPECT_NE(error.body.StringOr("message", "").find("nesting"),
            std::string::npos);
  ASSERT_TRUE(raw.WriteLine(R"({"op":"stats"})"));
  ASSERT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kLine);
  EXPECT_EQ(ParseEvent(line).type, EventType::kStats);
  server.Drain();
}

TEST(ServeServer, OversizedRequestLineGetsTypedErrorThenClose) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("oversize");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();
  const int fd = ConnectUnixSocket(config.socket_path);
  ASSERT_GE(fd, 0);
  // Stream one unterminated line past the bound. The daemon stops
  // reading at the cap and answers, so late sends may fail — that is
  // fine (MSG_NOSIGNAL keeps the failure an errno, not a SIGPIPE).
  const std::string chunk(1u << 16, 'x');
  std::size_t sent = 0;
  while (sent <= kMaxLineBytes) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  Session raw(fd);
  std::string line;
  ASSERT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kLine);
  const Event error = ParseEvent(line);
  ASSERT_EQ(error.type, EventType::kError);
  EXPECT_EQ(error.body.StringOr("kind", ""), "protocol_error");
  EXPECT_NE(error.body.StringOr("message", "").find("exceeds"),
            std::string::npos);
  // The daemon hangs up after the typed error.
  EXPECT_EQ(raw.ReadLine(&line, 30000), ReadStatus::kClosed);
  server.Drain();
}

TEST(ServeServer, DrainWaitsForInFlightSweeps) {
  TestRegistry registry;
  ServerConfig config;
  config.socket_path = TestSocketPath("drain_inflight");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client submitter = Client::Connect(config.socket_path);
  Client drainer = Client::Connect(config.socket_path);
  std::promise<void> accepted;
  std::thread submit_thread([&] {
    const Event done = submitter.Submit(
        "fig_92", true, 0, [&](const Event& event) {
          if (event.type == EventType::kAccepted) accepted.set_value();
        });
    EXPECT_EQ(done.type, EventType::kDone);
  });
  accepted.get_future().wait();  // The sweep is in flight, gated.

  std::atomic<bool> drained{false};
  std::thread drain_thread([&] {
    EXPECT_EQ(drainer.Drain(), 1u);  // Blocks until the sweep finishes.
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());  // Still waiting on the in-flight sweep.
  registry.release->set_value();
  drain_thread.join();
  EXPECT_TRUE(drained.load());
  submit_thread.join();
  server.Drain();
}


// A pixel kernel that passes intake; one curve per architecture.
constexpr char kServeIl[] =
    "il_ps_2_0 ; serve_probe\n"
    "; type=Float read=Texture write=Stream\n"
    "dcl_input i0\n"
    "dcl_output o0\n"
    "  sample    r0, i0\n"
    "  mov       r1, r0\n"
    "  export    o0, r1\n"
    "end\n";

TEST(ServeProtocol, CharacterizeRequestRoundTrips) {
  Request request;
  request.op = Request::Op::kCharacterize;
  request.il = kServeIl;
  request.quick = true;
  request.priority = 1;
  const Request back = ParseRequest(SerializeRequest(request));
  EXPECT_EQ(back.op, Request::Op::kCharacterize);
  EXPECT_EQ(back.il, kServeIl);  // Newlines survive the JSON escaping.
  EXPECT_TRUE(back.quick);
  EXPECT_EQ(back.priority, 1);
  // A characterize without kernel text has nothing to analyze.
  EXPECT_THROW(ParseRequest(R"({"op":"characterize"})"), ConfigError);
  EXPECT_THROW(ParseRequest(R"({"op":"characterize","il":""})"),
               ConfigError);
}

TEST(ServeProtocol, StaticEventRoundTrips) {
  StaticReport report;
  report.arch = "4870";
  report.alu_ops = 16;
  report.fetch_ops = 4;
  report.write_ops = 1;
  report.alu_fetch_ratio = 1.0;
  report.gpr_count = 5;
  report.theoretical_wavefronts = 51;
  report.resident_wavefronts = 24;
  report.bound = "balanced";
  const Event e = ParseEvent(SerializeStatic(7, report));
  EXPECT_EQ(e.type, EventType::kStatic);
  EXPECT_EQ(e.body.NumberOr("request", -1.0), 7.0);
  EXPECT_EQ(e.body.StringOr("arch", ""), "4870");
  EXPECT_EQ(e.body.NumberOr("alu_ops", -1.0), 16.0);
  EXPECT_EQ(e.body.NumberOr("fetch_ops", -1.0), 4.0);
  EXPECT_EQ(e.body.NumberOr("write_ops", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("alu_fetch_ratio", -1.0), 1.0);
  EXPECT_EQ(e.body.NumberOr("gpr_count", -1.0), 5.0);
  EXPECT_EQ(e.body.NumberOr("theoretical_wavefronts", -1.0), 51.0);
  EXPECT_EQ(e.body.NumberOr("resident_wavefronts", -1.0), 24.0);
  EXPECT_EQ(e.body.StringOr("bound", ""), "balanced");
}

TEST(ServeProtocol, RejectedWithCodeRoundTrips) {
  const Event e = ParseEvent(SerializeRejected(
      "invalid_kernel", "abcd1234abcd1234", "parse_error",
      "line 3: unknown mnemonic"));
  EXPECT_EQ(e.type, EventType::kRejected);
  EXPECT_EQ(e.body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(e.body.StringOr("figure", ""), "abcd1234abcd1234");
  EXPECT_EQ(e.body.StringOr("code", ""), "parse_error");
  EXPECT_EQ(e.body.StringOr("detail", ""), "line 3: unknown mnemonic");
}

TEST(ServeServer, CharacterizeEndToEndMatchesStandaloneByteForByte) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_bytes");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  // The standalone path: intake then characterize in this process.
  kerncap::AnalyzeResult analysis = kerncap::Analyze(kServeIl);
  ASSERT_TRUE(analysis.ok());
  kerncap::CharacterizeOptions options;
  options.quick = true;
  const std::string expected = report::BenchJson(
      kerncap::Characterize(*analysis.prepared, options));

  Client client = Client::Connect(config.socket_path);
  std::vector<Event> streamed;
  const Event done = client.Characterize(
      kServeIl, /*quick=*/true, /*priority=*/0,
      [&](const Event& event) { streamed.push_back(event); });
  ASSERT_EQ(done.type, EventType::kDone);
  EXPECT_EQ(done.body.StringOr("figure", ""),
            kerncap::Slug(*analysis.prepared));
  EXPECT_EQ(done.body.StringOr("figure_json", ""), expected);

  // Stream shape: accepted first, then one static per architecture,
  // then the per-curve progress / point / profile events.
  ASSERT_GE(streamed.size(), 4u);
  EXPECT_EQ(streamed[0].type, EventType::kAccepted);
  EXPECT_EQ(streamed[0].body.StringOr("figure", ""),
            kerncap::Slug(*analysis.prepared));
  std::size_t statics = 0, progress = 0, points = 0, profiles = 0;
  for (const Event& event : streamed) {
    if (event.type == EventType::kStatic) ++statics;
    if (event.type == EventType::kProgress) ++progress;
    if (event.type == EventType::kPoint) ++points;
    if (event.type == EventType::kProfile) ++profiles;
  }
  const std::size_t curves =
      kerncap::EligibleCurves(analysis.prepared->kernel).size();
  const std::size_t domains = kerncap::SweepDomains(true).size();
  EXPECT_EQ(statics, analysis.prepared->statics.size());
  EXPECT_EQ(progress, curves);
  EXPECT_EQ(points, curves * domains);
  EXPECT_EQ(profiles, curves * domains);
  // The statics arrive before any sweep traffic.
  EXPECT_EQ(streamed[1].type, EventType::kStatic);
  server.Drain();
}

TEST(ServeServer, CharacterizeRejectsMalformedKernelAndStaysServing) {
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_reject");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  Client client = Client::Connect(config.socket_path);
  const Event rejected = client.Characterize("this is not IL\n", true, 0);
  ASSERT_EQ(rejected.type, EventType::kRejected);
  EXPECT_EQ(rejected.body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(rejected.body.StringOr("code", ""), "parse_error");
  EXPECT_FALSE(rejected.body.StringOr("detail", "").empty());

  // The same session keeps working: a valid kernel completes, and the
  // daemon's counters saw both outcomes.
  const Event done = client.Characterize(kServeIl, true, 0);
  EXPECT_EQ(done.type, EventType::kDone);
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
  server.Drain();
}

TEST(ServeServer, CharacterizeCorpusOverSocketGetsTypedVerdicts) {
  namespace fs = std::filesystem;
  TestRegistry registry;
  registry.release->set_value();
  ServerConfig config;
  config.socket_path = TestSocketPath("kerncap_corpus");
  config.registry = &registry.defs;
  Server server(config);
  server.Start();

  const fs::path corpus = fs::path(AMDMB_TEST_DATA_DIR) / "corpus" / "il";
  ASSERT_TRUE(fs::is_directory(corpus));
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() == ".il") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 20u);

  // Every corpus kernel over one session: malformed files come back as
  // typed rejections, valid ones characterize, and the session never
  // wedges.
  Client client = Client::Connect(config.socket_path);
  std::size_t rejected = 0, completed = 0;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    const Event terminal = client.Characterize(text.str(), true, 0);
    const bool expect_ok =
        path.filename().string().rfind("valid_", 0) == 0;
    if (expect_ok) {
      EXPECT_EQ(terminal.type, EventType::kDone);
      ++completed;
    } else {
      ASSERT_EQ(terminal.type, EventType::kRejected);
      EXPECT_EQ(terminal.body.StringOr("reason", ""), "invalid_kernel");
      EXPECT_FALSE(terminal.body.StringOr("code", "").empty());
      ++rejected;
    }
  }
  const ServeStats stats = client.Stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, completed);
  server.Drain();
}

TEST(ServeClient, OversizedCharacterizeIsRejectedWithoutConnecting) {
  // No daemon anywhere: the bound check must fire before any socket
  // work, so a 9 MiB kernel yields a typed verdict, not a connect error.
  const std::string huge(9u << 20, 'x');
  const std::optional<Event> verdict = OversizedCharacterize(huge, true, 0);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, EventType::kRejected);
  EXPECT_EQ(verdict->body.StringOr("reason", ""), "invalid_kernel");
  EXPECT_EQ(verdict->body.StringOr("code", ""), "payload_too_large");
  EXPECT_NE(verdict->body.StringOr("detail", "").find("not sent"),
            std::string::npos);
  // A small kernel passes the bound and returns no verdict.
  EXPECT_FALSE(OversizedCharacterize(kServeIl, true, 0).has_value());
}

}  // namespace
}  // namespace amdmb::serve
