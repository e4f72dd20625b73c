// Profiler subsystem tests: counter registry, collector determinism
// (thread widths, fault retries), counter-based bottleneck attribution
// cross-checked against the heuristic classifier, Chrome-trace export
// (golden document), and profile JSON round-trips.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "exec/sweep_executor.hpp"
#include "fault/fault.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/collector.hpp"
#include "prof/profile_json.hpp"
#include "report/json.hpp"
#include "report/json_sink.hpp"
#include "report/load.hpp"
#include "suite/suite.hpp"

namespace amdmb::prof {
namespace {

constexpr Domain kSmall{256, 256};

isa::Program SmallProgram(const GpuArch& arch) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 70;  // > one interleave chunk: multiple ALU events/wave.
  return compiler::Compile(suite::GenerateGeneric(spec), arch);
}

/// One profiled launch through the suite Runner (the CAL path).
suite::Measurement ProfiledMeasurement() {
  suite::Runner runner(MakeRV770());
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 16;
  sim::LaunchConfig launch;
  launch.domain = kSmall;
  launch.profile = true;
  return runner.Measure(suite::GenerateGeneric(spec), launch);
}

// ---- Counter registry --------------------------------------------------

TEST(CounterRegistryTest, NamesRoundTripAndDescriptionsExist) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto id = static_cast<CounterId>(i);
    EXPECT_FALSE(ToString(id).empty());
    EXPECT_FALSE(Describe(id).empty());
    EXPECT_EQ(CounterIdFromString(ToString(id)), id);
  }
  EXPECT_EQ(CounterIdFromString("no_such_counter"), std::nullopt);
}

// ---- Collector on Gpu::Execute -----------------------------------------

TEST(CollectorTest, DoesNotPerturbKernelStats) {
  const GpuArch arch = MakeRV770();
  sim::Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  sim::LaunchConfig config;
  config.domain = Domain{128, 128};
  Collector collector(1u << 20);
  const sim::KernelStats with =
      gpu.Execute(p, config, nullptr, &collector);
  const sim::KernelStats without = gpu.Execute(p, config);
  EXPECT_EQ(with, without);
}

TEST(CollectorTest, CountersAgreeWithKernelStats) {
  const GpuArch arch = MakeRV770();
  sim::Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  sim::LaunchConfig config;
  config.domain = kSmall;
  Collector collector(1u << 20);
  const sim::KernelStats stats =
      gpu.Execute(p, config, nullptr, &collector);
  const Profile profile = collector.Take();
  const CounterSet& c = profile.counters;
  EXPECT_EQ(c.Get(CounterId::kCycles), stats.cycles);
  EXPECT_EQ(c.Get(CounterId::kWavefronts), stats.wavefront_count);
  EXPECT_EQ(c.Get(CounterId::kResidentWavefronts),
            stats.resident_wavefronts);
  EXPECT_EQ(c.Get(CounterId::kSimdEngines), arch.simd_engines);
  EXPECT_EQ(c.Get(CounterId::kTexCacheHits), stats.cache.hits);
  EXPECT_EQ(c.Get(CounterId::kTexCacheMisses), stats.cache.misses);
  EXPECT_EQ(c.Get(CounterId::kDramBatches), stats.dram.batches);
  EXPECT_EQ(c.Get(CounterId::kDramReadBytes), stats.dram.read_bytes);
  EXPECT_EQ(c.Get(CounterId::kDramWriteBytes), stats.dram.write_bytes);
  EXPECT_EQ(c.Get(CounterId::kDramBusyCycles), stats.dram.busy_cycles);
  EXPECT_EQ(c.Get(CounterId::kDramFillBusyCycles),
            stats.dram.fill_busy_cycles);
  EXPECT_EQ(c.Get(CounterId::kDramRowSwitches), stats.dram.row_switches);
  // Per-cache-set hit/miss totals must re-add to the cache counters.
  std::uint64_t set_hits = 0, set_misses = 0;
  for (const CacheSetStats& s : profile.per_cache_set) {
    set_hits += s.hits;
    set_misses += s.misses;
  }
  EXPECT_EQ(set_hits, stats.cache.hits);
  EXPECT_EQ(set_misses, stats.cache.misses);
  EXPECT_EQ(profile.dropped_events, 0u);
  EXPECT_GT(c.Get(CounterId::kAluBundles), 0u);
  EXPECT_LE(c.Get(CounterId::kAluSlotsUsed),
            c.Get(CounterId::kAluSlotsTotal));
}

TEST(CollectorTest, CapsEventStreamAndCountsDrops) {
  const GpuArch arch = MakeRV770();
  sim::Gpu gpu(arch);
  const isa::Program p = SmallProgram(arch);
  sim::LaunchConfig config;
  config.domain = kSmall;
  Collector collector(/*event_capacity=*/8);
  gpu.Execute(p, config, nullptr, &collector);
  const Profile profile = collector.Take();
  EXPECT_EQ(profile.events.size(), 8u);
  EXPECT_GT(profile.dropped_events, 0u);
  // Aggregated counters keep counting past the event cap.
  EXPECT_GT(profile.counters.Get(CounterId::kAluClauses), 8u);
}

TEST(CollectorTest, UnprofiledLaunchHasNullProfile) {
  suite::Runner runner(MakeRV770());
  suite::GenericSpec spec;
  spec.inputs = 2;
  sim::LaunchConfig launch;
  launch.domain = kSmall;
  const suite::Measurement m =
      runner.Measure(suite::GenerateGeneric(spec), launch);
  EXPECT_EQ(m.profile, nullptr);
}

// ---- Determinism -------------------------------------------------------

TEST(ProfDeterminismTest, CountersIdenticalAtAnyExecutorWidth) {
  const exec::SweepExecutor serial(1);
  const exec::SweepExecutor wide(8);
  const suite::Runner runner(MakeRV770());
  suite::AluFetchConfig config;
  config.domain = kSmall;
  config.ratio_step = 2.0;
  config.exec.profile = true;
  config.exec.executor = &serial;
  const suite::AluFetchResult a = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, config);
  config.exec.executor = &wide;
  const suite::AluFetchResult b = RunAluFetch(
      runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_FALSE(a.points.empty());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    ASSERT_NE(a.points[i].m.profile, nullptr);
    ASSERT_NE(b.points[i].m.profile, nullptr);
    EXPECT_EQ(a.points[i].m.profile->counters,
              b.points[i].m.profile->counters);
    EXPECT_EQ(a.points[i].m.profile->attribution,
              b.points[i].m.profile->attribution);
    EXPECT_EQ(a.points[i].m.profile->clauses,
              b.points[i].m.profile->clauses);
  }
}

TEST(ProfDeterminismTest, RetriedPointsDoNotDoubleCount) {
  const suite::Runner runner(MakeRV770());
  suite::ReadLatencyConfig config;
  config.domain = kSmall;
  config.min_inputs = 2;
  config.max_inputs = 6;
  config.exec.profile = true;
  config.exec.retry.max_attempts = 8;
  config.exec.retry.backoff_base_ms = 0.0;
  config.exec.retry.backoff_cap_ms = 0.0;
  const suite::ReadLatencyResult clean =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_FALSE(clean.points.empty());

  fault::ScopedFaultInjector scoped("launch:0.5,seed=11");
  const suite::ReadLatencyResult faulty =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat, config);

  unsigned retried = 0;
  for (const suite::ReadLatencyPoint& fp : faulty.points) {
    ASSERT_NE(fp.m.profile, nullptr);
    if (fp.m.profile->attempt > 1) ++retried;
    for (const suite::ReadLatencyPoint& cp : clean.points) {
      if (cp.inputs != fp.inputs) continue;
      // A fresh collector rides every attempt, so the surviving
      // attempt's counters match the fault-free run exactly.
      EXPECT_EQ(fp.m.profile->counters, cp.m.profile->counters)
          << "inputs=" << fp.inputs;
      EXPECT_EQ(fp.m.profile->attribution, cp.m.profile->attribution);
    }
  }
  EXPECT_GT(retried, 0u) << "fault plan injected no retries; the "
                            "no-double-count property went unexercised";
}

// ---- Attribution vs. the heuristic classifier --------------------------

template <typename Points>
void ExpectAttributionAgreement(const Points& points, const char* what) {
  ASSERT_FALSE(points.empty()) << what;
  for (const auto& point : points) {
    ASSERT_NE(point.m.profile, nullptr) << what;
    EXPECT_EQ(point.m.profile->attribution.bottleneck,
              point.m.stats.bottleneck)
        << what << " point " << point.m.profile->point;
  }
}

TEST(AttributionTest, AgreesWithHeuristicAcrossSweepFamilies) {
  const suite::Runner runner(MakeRV770());
  {
    suite::AluFetchConfig c;
    c.domain = kSmall;
    c.ratio_step = 1.0;
    c.exec.profile = true;
    for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
      ExpectAttributionAgreement(
          RunAluFetch(runner, ShaderMode::kPixel, type, c).points,
          "alu_fetch pixel");
      ExpectAttributionAgreement(
          RunAluFetch(runner, ShaderMode::kCompute, type, c).points,
          "alu_fetch compute");
    }
  }
  {
    suite::ReadLatencyConfig c;
    c.domain = kSmall;
    c.max_inputs = 8;
    c.exec.profile = true;
    ExpectAttributionAgreement(
        RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat, c)
            .points,
        "read_latency texture");
    c.read_path = ReadPath::kGlobal;
    ExpectAttributionAgreement(
        RunReadLatency(runner, ShaderMode::kCompute, DataType::kFloat, c)
            .points,
        "read_latency global");
  }
  {
    suite::WriteLatencyConfig c;
    c.domain = kSmall;
    c.exec.profile = true;
    ExpectAttributionAgreement(
        RunWriteLatency(runner, ShaderMode::kPixel, DataType::kFloat, c)
            .points,
        "write_latency stream");
    c.write_path = WritePath::kGlobal;
    ExpectAttributionAgreement(
        RunWriteLatency(runner, ShaderMode::kCompute, DataType::kFloat, c)
            .points,
        "write_latency global");
  }
  {
    suite::DomainSizeConfig c;
    c.max_size = 512;
    c.pixel_increment = 128;
    c.exec.profile = true;
    ExpectAttributionAgreement(
        RunDomainSize(runner, ShaderMode::kPixel, DataType::kFloat, c)
            .points,
        "domain_size");
  }
  {
    suite::RegisterUsageConfig c;
    c.domain = kSmall;
    c.exec.profile = true;
    ExpectAttributionAgreement(
        RunRegisterUsage(runner, ShaderMode::kPixel, DataType::kFloat, c)
            .points,
        "register_usage");
  }
  {
    suite::BlockSizeConfig c;
    c.domain = kSmall;
    c.exec.profile = true;
    ExpectAttributionAgreement(RunBlockSizeExplorer(runner, c).points,
                               "block_size");
  }
}

TEST(AttributionTest, ZeroCyclesYieldsDefault) {
  const Attribution a = Attribute(CounterSet{});
  EXPECT_EQ(a.bottleneck, sim::Bottleneck::kAlu);
  EXPECT_EQ(a.alu_score, 0.0);
}

// ---- Chrome trace ------------------------------------------------------

TEST(ChromeTraceTest, GoldenDocumentForSyntheticProfile) {
  Profile p;
  p.kernel = "alufetch_r2.00";
  p.point = "alufetch_r2.00";
  p.arch = "RV770";
  p.mode = "Pixel";
  p.type = "Float";
  p.attempt = 1;
  p.counters.Set(CounterId::kCycles, 100);
  p.counters.Set(CounterId::kWavefronts, 2);
  p.attribution.bottleneck = sim::Bottleneck::kFetch;
  sim::TraceEvent e1;
  e1.type = isa::ClauseType::kTex;
  e1.simd = 0;
  e1.wave = 0;
  e1.clause = 0;
  e1.issue = 0;
  e1.start = 2;
  e1.complete = 10;
  sim::TraceEvent e2;
  e2.type = isa::ClauseType::kAlu;
  e2.simd = 1;
  e2.wave = 1;
  e2.clause = 1;
  e2.issue = 10;
  e2.start = 10;
  e2.complete = 42;
  p.events = {e1, e2};
  p.occupancy = {{0, 0, 1}, {42, 1, 0}};
  p.dropped_events = 3;

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"SIMD 0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"SIMD 1\"}},\n"
      "{\"name\":\"TEX\",\"cat\":\"clause\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":0,\"ts\":2,\"dur\":8,"
      "\"args\":{\"wave\":0,\"clause\":0,\"queue_cycles\":2}},\n"
      "{\"name\":\"ALU\",\"cat\":\"clause\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":1,\"ts\":10,\"dur\":32,"
      "\"args\":{\"wave\":1,\"clause\":1,\"queue_cycles\":0}},\n"
      "{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,"
      "\"args\":{\"resident_wavefronts\":1}},\n"
      "{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":0,\"tid\":1,"
      "\"ts\":42,\"args\":{\"resident_wavefronts\":0}}\n"
      "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
      "\"kernel\":\"alufetch_r2.00\",\"point\":\"alufetch_r2.00\","
      "\"arch\":\"RV770\",\"mode\":\"Pixel\",\"type\":\"Float\","
      "\"attempt\":1,\"dropped_events\":3,\"bottleneck\":\"FETCH\"}}\n";
  EXPECT_EQ(ChromeTraceJson(p), expected);
  EXPECT_EQ(TraceFileName(p), "rv770_pixel_float_alufetch_r2_00.trace.json");
}

TEST(ChromeTraceTest, RealLaunchProducesValidTraceEventJson) {
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  const std::string json = ChromeTraceJson(*m.profile);
  const report::JsonValue doc = report::JsonValue::Parse(json);
  const report::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->AsArray().empty());
  bool saw_meta = false, saw_slice = false, saw_counter = false;
  for (const report::JsonValue& e : events->AsArray()) {
    const std::string ph = e.StringOr("ph", "");
    if (ph == "M") saw_meta = true;
    if (ph == "C") saw_counter = true;
    if (ph == "X") {
      saw_slice = true;
      EXPECT_NE(e.Find("ts"), nullptr);
      EXPECT_NE(e.Find("dur"), nullptr);
      EXPECT_NE(e.Find("args"), nullptr);
      EXPECT_EQ(e.StringOr("cat", ""), "clause");
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_counter);
  const report::JsonValue* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->StringOr("kernel", ""), m.profile->kernel);
}

TEST(ChromeTraceTest, FileNamesKeepFloatAndFloat4Apart) {
  Profile p;
  p.point = "alufetch_r0.25";
  p.arch = "RV770";
  p.mode = "Pixel";
  p.type = "Float";
  Profile q = p;
  q.type = "Float4";
  EXPECT_NE(TraceFileName(p), TraceFileName(q));
  // Retry attempts get their own file instead of clobbering attempt 1.
  Profile r = p;
  r.attempt = 2;
  EXPECT_NE(TraceFileName(p), TraceFileName(r));
  Profile empty;
  EXPECT_EQ(TraceFileName(empty), "launch.trace.json");
}

// ---- Profile JSON round-trip -------------------------------------------

TEST(ProfileJsonTest, RoundTripsThroughJson) {
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  const Profile& p = *m.profile;
  const Profile q = ParseProfileJson(ProfileJson(p));
  EXPECT_EQ(q.kernel, p.kernel);
  EXPECT_EQ(q.point, p.point);
  EXPECT_EQ(q.arch, p.arch);
  EXPECT_EQ(q.mode, p.mode);
  EXPECT_EQ(q.type, p.type);
  EXPECT_EQ(q.attempt, p.attempt);
  EXPECT_EQ(q.counters, p.counters);
  EXPECT_EQ(q.clauses, p.clauses);
  EXPECT_EQ(q.per_simd, p.per_simd);
  EXPECT_EQ(q.row_switches_per_bank, p.row_switches_per_bank);
  EXPECT_EQ(q.per_cache_set, p.per_cache_set);
  EXPECT_EQ(q.dropped_events, p.dropped_events);
  EXPECT_EQ(q.attribution, p.attribution);
  // The document intentionally omits the raw streams (Chrome trace's
  // job), so a round-tripped profile carries none.
  EXPECT_TRUE(q.events.empty());
  EXPECT_TRUE(q.occupancy.empty());
}

TEST(ProfileJsonTest, CounterSetIgnoresUnknownKeys) {
  const CounterSet c = CounterSetFromJson(
      report::JsonValue::Parse("{\"cycles\": 7, \"from_the_future\": 9}"));
  EXPECT_EQ(c.Get(CounterId::kCycles), 7u);
}

// ---- Report-layer plumbing ---------------------------------------------

TEST(ProfileReportTest, BenchJsonCarriesProfileBlock) {
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  report::Figure figure("Fig. 99 — Profiler Plumbing", "t", "x", "y",
                        "claim");
  figure.profiles.push_back(report::MakeProfileEntry(
      "4870 Pixel Float", *m.profile,
      sim::ToString(m.stats.bottleneck)));
  const std::string json = report::BenchJson(figure);
  const report::LoadedFigure loaded = report::LoadFigureJson(json);
  ASSERT_EQ(loaded.profiles.size(), 1u);
  const report::ProfileEntry& entry = loaded.profiles[0];
  EXPECT_EQ(entry.curve, "4870 Pixel Float");
  EXPECT_EQ(entry.point, m.profile->point);
  EXPECT_TRUE(entry.agree);
  EXPECT_EQ(entry.attributed, entry.heuristic);
  EXPECT_EQ(entry.counters, m.profile->counters);
}

TEST(ProfileReportTest, UnprofiledDocumentOmitsProfileKey) {
  report::Figure figure("Fig. 99 — Profiler Plumbing", "t", "x", "y",
                        "claim");
  EXPECT_EQ(report::BenchJson(figure).find("\"profile\""),
            std::string::npos);
}

TEST(ProfileReportTest, DivergenceRendersLoudly) {
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  const report::ProfileEntry entry = report::MakeProfileEntry(
      "curve", *m.profile, "NOT_WHAT_THE_COUNTERS_SAY");
  EXPECT_FALSE(entry.agree);
  EXPECT_NE(entry.Render().find("DIVERGES"), std::string::npos);
}

}  // namespace
}  // namespace amdmb::prof
