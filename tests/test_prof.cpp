// Profiler subsystem tests: counter registry, collector determinism
// (thread widths, fault retries), exact VLIW slot counters, timeline-free
// collectors counting exactly like timeline ones, counter-based
// bottleneck attribution cross-checked against the heuristic classifier,
// Chrome-trace export (golden document), profile JSON round-trips, and
// the full profile every figure's ProfileEntry keeps (what amdmb_prof
// reads).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
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
#include "suite/figures.hpp"
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

/// Points prof::TraceDirectory() at a fresh temporary directory (or,
/// with `enabled` false, at none) for one scope, then restores it.
class ScopedTraceDirectory {
 public:
  explicit ScopedTraceDirectory(bool enabled) : before_(TraceDirectory()) {
    if (enabled) {
      dir_ = std::filesystem::path(::testing::TempDir()) /
             ("amdmb_prof_traces_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
    }
    SetTraceDirectory(dir_.string());
  }
  ~ScopedTraceDirectory() {
    SetTraceDirectory(before_);
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  ScopedTraceDirectory(const ScopedTraceDirectory&) = delete;
  ScopedTraceDirectory& operator=(const ScopedTraceDirectory&) = delete;

  const std::filesystem::path& Path() const { return dir_; }

 private:
  std::string before_;
  std::filesystem::path dir_;
};

/// Everything a profile records apart from its timeline (events and
/// occupancy) must match.
void ExpectEqualApartFromTimeline(const Profile& a, const Profile& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.clauses, b.clauses);
  EXPECT_EQ(a.per_simd, b.per_simd);
  EXPECT_EQ(a.row_switches_per_bank, b.row_switches_per_bank);
  EXPECT_EQ(a.per_cache_set, b.per_cache_set);
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  EXPECT_EQ(a.attribution, b.attribution);
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
  Collector collector(1u << 20, Timeline::kKeep);
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
  Collector collector(1u << 20, Timeline::kKeep);
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
  Collector collector(/*event_capacity=*/8, Timeline::kKeep);
  gpu.Execute(p, config, nullptr, &collector);
  const Profile profile = collector.Take();
  EXPECT_EQ(profile.events.size(), 8u);
  EXPECT_GT(profile.dropped_events, 0u);
  // Aggregated counters keep counting past the event cap.
  EXPECT_GT(profile.counters.Get(CounterId::kAluClauses), 8u);
}

TEST(CollectorTest, AluSlotCountersAreExactOverLongClauses) {
  // Every wavefront issues every bundle of every ALU clause once, in
  // kAluInterleaveBundles chunks; clauses longer than one chunk and not
  // a multiple of it exercise the partial last chunk.
  for (const GpuArch& arch : AllArchs()) {
    const sim::Gpu gpu(arch);
    for (const ShaderMode mode : {ShaderMode::kPixel, ShaderMode::kCompute}) {
      if (mode == ShaderMode::kCompute && !arch.supports_compute) continue;
      bool saw_partial_chunk = false;
      for (const unsigned alu_ops : {70u, 150u, 301u}) {
        suite::GenericSpec spec;
        spec.inputs = 4;
        spec.alu_ops = alu_ops;
        if (mode == ShaderMode::kCompute) {
          spec.write_path = WritePath::kGlobal;
        }
        const isa::Program p =
            compiler::Compile(suite::GenerateGeneric(spec), arch);
        std::uint64_t bundles = 0;
        std::uint64_t slots = 0;
        for (const isa::Clause& clause : p.clauses) {
          if (clause.type != isa::ClauseType::kAlu) continue;
          const std::size_t size = clause.bundles.size();
          if (size > sim::kAluInterleaveBundles &&
              size % sim::kAluInterleaveBundles != 0) {
            saw_partial_chunk = true;
          }
          bundles += size;
          for (const isa::Bundle& bundle : clause.bundles) {
            slots += bundle.SlotCount();
          }
        }
        sim::LaunchConfig config;
        config.domain = Domain{128, 128};
        config.mode = mode;
        Collector collector(1u << 20, Timeline::kDrop);
        const sim::KernelStats stats =
            gpu.Execute(p, config, nullptr, &collector);
        const CounterSet& c = collector.Current().counters;
        const std::uint64_t waves = stats.wavefront_count;
        const std::string what = arch.name + " " +
                                 std::string(ToString(mode)) + " alu_ops=" +
                                 std::to_string(alu_ops);
        EXPECT_EQ(c.Get(CounterId::kAluBundles), waves * bundles) << what;
        EXPECT_EQ(c.Get(CounterId::kAluSlotsUsed), waves * slots) << what;
        EXPECT_EQ(c.Get(CounterId::kAluSlotsTotal),
                  waves * bundles * arch.vliw_width)
            << what;
      }
      EXPECT_TRUE(saw_partial_chunk)
          << arch.name << ": no ALU clause longer than one chunk and not a "
                          "multiple of it; the partial chunk went untested";
    }
  }
}

TEST(CollectorTest, TimelineFreeCollectorCountsLikeATimelineOne) {
  // The same launches with and without a kept timeline, at the default
  // capacity and at one small enough that clause events are dropped.
  struct Case {
    const char* what;
    ShaderMode mode;
    suite::GenericSpec spec;
  };
  suite::GenericSpec texture;
  texture.inputs = 4;
  texture.alu_ops = 70;
  suite::GenericSpec global = texture;
  global.read_path = ReadPath::kGlobal;
  global.write_path = WritePath::kGlobal;
  global.type = DataType::kFloat4;
  const Case cases[] = {{"texture pixel", ShaderMode::kPixel, texture},
                        {"global compute", ShaderMode::kCompute, global}};
  const GpuArch arch = MakeRV770();
  const sim::Gpu gpu(arch);
  for (const Case& c : cases) {
    const isa::Program p = compiler::Compile(suite::GenerateGeneric(c.spec),
                                             arch);
    sim::LaunchConfig config;
    config.domain = kSmall;
    config.mode = c.mode;
    for (const std::size_t capacity : {sim::DefaultTraceCapacity(),
                                       std::size_t{8}}) {
      SCOPED_TRACE(std::string(c.what) + " capacity " +
                   std::to_string(capacity));
      Collector kept(capacity, Timeline::kKeep);
      Collector dropped(capacity, Timeline::kDrop);
      EXPECT_EQ(gpu.Execute(p, config, nullptr, &kept),
                gpu.Execute(p, config, nullptr, &dropped));
      const Profile with = kept.Take();
      const Profile without = dropped.Take();
      ExpectEqualApartFromTimeline(with, without);
      EXPECT_FALSE(with.events.empty());
      EXPECT_FALSE(with.occupancy.empty());
      EXPECT_TRUE(without.events.empty());
      EXPECT_TRUE(without.occupancy.empty());
      if (capacity == 8) {
        EXPECT_EQ(with.events.size(), 8u);
        EXPECT_GT(without.dropped_events, 0u);
      }
    }
  }
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
  // A profiled launch keeps its timeline only when its trace is written,
  // so give it a trace directory.
  const ScopedTraceDirectory traces(/*enabled=*/true);
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  const std::string json = ChromeTraceJson(*m.profile);
  std::ifstream written(TracePath(*m.profile, traces.Path().string()));
  ASSERT_TRUE(written.good());
  std::ostringstream file;
  file << written.rdbuf();
  EXPECT_EQ(file.str(), json);
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

TEST(ChromeTraceTest, NoTraceDirectoryMeansNoTimeline) {
  suite::Measurement plain;
  suite::Measurement traced;
  {
    const ScopedTraceDirectory none(/*enabled=*/false);
    plain = ProfiledMeasurement();
  }
  {
    const ScopedTraceDirectory traces(/*enabled=*/true);
    traced = ProfiledMeasurement();
  }
  ASSERT_NE(plain.profile, nullptr);
  ASSERT_NE(traced.profile, nullptr);
  EXPECT_TRUE(plain.profile->events.empty());
  EXPECT_TRUE(plain.profile->occupancy.empty());
  EXPECT_FALSE(traced.profile->events.empty());
  EXPECT_FALSE(traced.profile->occupancy.empty());
  EXPECT_EQ(plain.stats, traced.stats);
  ExpectEqualApartFromTimeline(*plain.profile, *traced.profile);
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

TEST(ChromeTraceTest, DistinctLaunchesWriteDistinctFiles) {
  // Fig. 8's first curve sweeps one arch/mode/type twice (4x16 and 64x1
  // blocks) under the same point labels; the residency-cap ablation
  // sweeps the same kernels under several caps. Every profiled launch
  // still writes its own file, and the path amdmb_prof prints from the
  // entry's profile is the file that was written.
  namespace figures = suite::figures;
  struct Case {
    const figures::FigureDef* def;
    std::size_t curves;
  };
  const figures::FigureDef* fig8 = figures::Find("fig_8");
  const figures::FigureDef* caps = figures::Find(
      "ablation_wavefront_residency_cap", figures::Supplementary());
  ASSERT_NE(fig8, nullptr);
  ASSERT_NE(caps, nullptr);
  figures::RunOptions opts;
  opts.quick = true;
  opts.profile = true;
  for (const Case& c : {Case{fig8, 1}, Case{caps, caps->curves.size()}}) {
    SCOPED_TRACE(c.def->slug);
    const ScopedTraceDirectory traces(/*enabled=*/true);
    report::Figure record = figures::NewRecord(*c.def);
    for (std::size_t i = 0; i < c.curves; ++i) {
      c.def->curves[i].run(record, opts);
    }
    ASSERT_FALSE(record.profiles.empty());
    std::size_t files = 0;
    for (const auto& file :
         std::filesystem::directory_iterator(traces.Path())) {
      files += file.is_regular_file() ? 1 : 0;
    }
    EXPECT_EQ(files, record.profiles.size());
    for (const report::ProfileEntry& entry : record.profiles) {
      EXPECT_TRUE(std::filesystem::exists(
          TracePath(*entry.profile, traces.Path().string())))
          << entry.curve << "/" << entry.point;
    }
  }
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
      "4870 Pixel Float", m.profile,
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
      "curve", m.profile, "NOT_WHAT_THE_COUNTERS_SAY");
  EXPECT_FALSE(entry.agree);
  EXPECT_NE(entry.Render().find("DIVERGES"), std::string::npos);
}

TEST(ProfileEntryTest, EqualityComparesEverySerializedFieldButNotProfile) {
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  const report::ProfileEntry entry = report::MakeProfileEntry(
      "4870 Pixel Float", m.profile, sim::ToString(m.stats.bottleneck));
  EXPECT_EQ(entry.profile, m.profile);
  report::ProfileEntry without = entry;
  without.profile = nullptr;
  EXPECT_EQ(entry, without);

  using Edit = void (*)(report::ProfileEntry&);
  const Edit edits[] = {
      [](report::ProfileEntry& e) { e.curve += "x"; },
      [](report::ProfileEntry& e) { e.point += "x"; },
      [](report::ProfileEntry& e) { e.attributed += "x"; },
      [](report::ProfileEntry& e) { e.heuristic += "x"; },
      [](report::ProfileEntry& e) { e.agree = !e.agree; },
      [](report::ProfileEntry& e) { e.alu_score += 1.0; },
      [](report::ProfileEntry& e) { e.fetch_score += 1.0; },
      [](report::ProfileEntry& e) { e.memory_score += 1.0; },
      [](report::ProfileEntry& e) {
        e.counters.Add(CounterId::kCycles, 1);
      },
      [](report::ProfileEntry& e) { ++e.dropped_events; },
  };
  for (const Edit edit : edits) {
    report::ProfileEntry changed = entry;
    edit(changed);
    EXPECT_FALSE(changed == entry);
  }
}

TEST(ProfileEntryTest, EntryKeepsTheProfileWithoutItsTimeline) {
  const ScopedTraceDirectory traces(/*enabled=*/true);
  const suite::Measurement m = ProfiledMeasurement();
  ASSERT_NE(m.profile, nullptr);
  ASSERT_FALSE(m.profile->events.empty());
  const report::ProfileEntry entry = report::MakeProfileEntry(
      "4870 Pixel Float", m.profile, sim::ToString(m.stats.bottleneck));
  ASSERT_NE(entry.profile, nullptr);
  // Released, not just cleared: the record outlives the sweep.
  EXPECT_EQ(entry.profile->events.capacity(), 0u);
  EXPECT_EQ(entry.profile->occupancy.capacity(), 0u);
  ExpectEqualApartFromTimeline(*entry.profile, *m.profile);
  EXPECT_FALSE(m.profile->events.empty());
}

// Every figure that launches kernels (all but Table I), built the way
// amdmb_prof builds it: the first curve at quick scale, profiled. Each
// entry must keep the profile it was made from, and the pointer must
// never reach the document.
TEST(ProfileEntryTest, EveryKernelLaunchingFigureKeepsItsProfiles) {
  namespace figures = suite::figures;
  std::vector<const figures::FigureDef*> defs;
  for (const auto* list : {&figures::Registry(), &figures::Supplementary()}) {
    for (const figures::FigureDef& def : *list) {
      if (def.slug != "table_i") defs.push_back(&def);
    }
  }
  ASSERT_EQ(defs.size(), 17u);
  figures::RunOptions opts;
  opts.quick = true;
  opts.profile = true;
  std::vector<report::Figure> records = exec::SweepExecutor::Default().Map(
      defs.size(), [&](std::size_t i) {
        report::Figure record = figures::NewRecord(*defs[i]);
        defs[i]->curves.front().run(record, opts);
        figures::FinalizeRecord(record, opts);
        return record;
      });

  for (std::size_t i = 0; i < defs.size(); ++i) {
    SCOPED_TRACE(defs[i]->slug);
    report::Figure& record = records[i];
    ASSERT_FALSE(record.profiles.empty());
    for (const report::ProfileEntry& entry : record.profiles) {
      ASSERT_NE(entry.profile, nullptr) << entry.curve << "/" << entry.point;
      const Profile& p = *entry.profile;
      EXPECT_EQ(entry.point, p.point);
      EXPECT_EQ(entry.attributed, sim::ToString(p.attribution.bottleneck));
      EXPECT_EQ(entry.counters, p.counters);
      EXPECT_EQ(entry.alu_score, p.attribution.alu_score);
      EXPECT_EQ(entry.fetch_score, p.attribution.fetch_score);
      EXPECT_EQ(entry.memory_score, p.attribution.memory_score);
      EXPECT_EQ(entry.dropped_events, p.dropped_events);
    }
    const std::string json = report::BenchJson(record);
    const std::vector<report::ProfileEntry> kept = record.profiles;
    for (report::ProfileEntry& entry : record.profiles) entry.profile = nullptr;
    EXPECT_EQ(report::BenchJson(record), json);
    EXPECT_EQ(record.profiles, kept);
    const report::LoadedFigure loaded = report::LoadFigureJson(json);
    EXPECT_EQ(loaded.profiles, kept);
    for (const report::ProfileEntry& entry : loaded.profiles) {
      EXPECT_EQ(entry.profile, nullptr);
    }
  }
}

}  // namespace
}  // namespace amdmb::prof
