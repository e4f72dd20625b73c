// Micro-benchmark infrastructure tests: runners, sweeps, crossover
// detection, figure assembly, and the optimisation advisor.
#include <gtest/gtest.h>

#include <optional>

#include "common/status.hpp"
#include "exec/kernel_cache.hpp"
#include "fault/fault.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"
#include "suite/suite.hpp"

namespace amdmb::suite {
namespace {

// Small domains keep these unit tests fast; figure-shape properties at
// paper scale live in test_figures.cpp.
constexpr Domain kSmall{256, 256};

TEST(RunnerTest, MeasureReturnsConsistentData) {
  Runner runner(MakeRV770());
  GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 16;
  sim::LaunchConfig launch;
  launch.domain = kSmall;
  const Measurement m = runner.Measure(GenerateGeneric(spec), launch);
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_EQ(m.seconds, m.stats.seconds);
  EXPECT_EQ(m.ska.alu_ops, 16u);
  EXPECT_DOUBLE_EQ(m.ska.alu_fetch_ratio, 1.0);
}

TEST(CurveKeyTest, PaperLegendNames) {
  const CurveKey key{MakeRV770(), ShaderMode::kPixel, DataType::kFloat};
  EXPECT_EQ(key.Name(), "4870 Pixel Float");
  const CurveKey key2{MakeRV870(), ShaderMode::kCompute, DataType::kFloat4};
  EXPECT_EQ(key2.Name(), "5870 Compute Float4");
}

TEST(CurveKeyTest, PaperCurvesSkipRv670Compute) {
  const auto curves = PaperCurves();
  // 3 GPUs x 2 types in pixel mode + 2 GPUs x 2 types in compute = 10,
  // exactly the paper's Fig. 7 legend.
  EXPECT_EQ(curves.size(), 10u);
  for (const CurveKey& key : curves) {
    EXPECT_FALSE(key.arch.name == "RV670" &&
                 key.mode == ShaderMode::kCompute);
  }
  EXPECT_EQ(PaperCurves(true, false).size(), 6u);
  EXPECT_EQ(PaperCurves(false, true).size(), 4u);
}

TEST(AluFetchTest, SweepFindsCrossoverAndIsMonotoneAtTail) {
  Runner runner(MakeRV770());
  AluFetchConfig config;
  config.domain = kSmall;
  config.ratio_step = 0.5;
  const AluFetchResult r =
      RunAluFetch(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 16u);
  ASSERT_TRUE(r.crossover.has_value());
  // Once ALU-bound, time grows with the ratio.
  bool past = false;
  double prev = 0.0;
  for (const AluFetchPoint& p : r.points) {
    if (p.ratio >= *r.crossover + 1.0) {
      if (past) {
        EXPECT_GT(p.m.seconds, prev);
      }
      past = true;
      prev = p.m.seconds;
    }
  }
}

TEST(AluFetchTest, FigureHasOneSeriesPerCurve) {
  AluFetchConfig config;
  config.domain = kSmall;
  config.ratio_min = 1.0;
  config.ratio_max = 2.0;
  config.ratio_step = 1.0;
  const std::vector<CurveKey> curves = {
      {MakeRV770(), ShaderMode::kPixel, DataType::kFloat},
      {MakeRV770(), ShaderMode::kCompute, DataType::kFloat},
  };
  for (const CurveKey& key : curves) {
    Runner runner(key.arch);
    const AluFetchResult r = RunAluFetch(runner, key.mode, key.type, config);
    ASSERT_EQ(r.points.size(), 2u) << key.Name();
    EXPECT_DOUBLE_EQ(r.points[0].ratio, 1.0);
    EXPECT_DOUBLE_EQ(r.points[1].ratio, 2.0);
    ASSERT_EQ(r.report.points.size(), 2u);
    EXPECT_EQ(r.report.points[0].label, "alufetch_r1.00");
    EXPECT_EQ(r.report.points[1].label, "alufetch_r2.00");
  }
}

TEST(ReadLatencyTest, LinearInInputs) {
  Runner runner(MakeRV770());
  ReadLatencyConfig config;
  config.domain = kSmall;
  const ReadLatencyResult r =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 17u);
  EXPECT_GT(r.fit.slope, 0.0);
  EXPECT_GT(r.fit.r2, 0.95);  // Paper: "latency ... is linear".
}

TEST(ReadLatencyTest, KernelsStayFetchBound) {
  Runner runner(MakeRV870());
  ReadLatencyConfig config;
  config.domain = kSmall;
  const ReadLatencyResult r =
      RunReadLatency(runner, ShaderMode::kPixel, DataType::kFloat4, config);
  for (const ReadLatencyPoint& p : r.points) {
    EXPECT_NE(p.m.stats.bottleneck, sim::Bottleneck::kAlu)
        << "inputs=" << p.inputs;
  }
}

TEST(WriteLatencyTest, LinearTailAndPinnedGprs) {
  Runner runner(MakeRV770());
  WriteLatencyConfig config;
  config.domain = kSmall;
  const WriteLatencyResult r =
      RunWriteLatency(runner, ShaderMode::kPixel, DataType::kFloat4, config);
  ASSERT_EQ(r.points.size(), 8u);
  const unsigned gpr = r.points.front().m.stats.gpr_count;
  for (const WriteLatencyPoint& p : r.points) {
    EXPECT_EQ(p.m.stats.gpr_count, gpr);
  }
  EXPECT_GE(r.points.back().m.seconds, r.points.front().m.seconds);
}

TEST(WriteLatencyTest, RejectsOutputsAboveInputs) {
  Runner runner(MakeRV770());
  WriteLatencyConfig config;
  config.max_outputs = 12;
  EXPECT_THROW(
      RunWriteLatency(runner, ShaderMode::kPixel, DataType::kFloat, config),
      ConfigError);
}

TEST(DomainSizeTest, TimeGrowsOverSweep) {
  Runner runner(MakeRV770());
  DomainSizeConfig config;
  config.min_size = 256;
  config.max_size = 512;
  config.pixel_increment = 64;
  const DomainSizeResult r =
      RunDomainSize(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 5u);
  EXPECT_GT(r.points.back().m.seconds, r.points.front().m.seconds * 2.0);
  // ALU:Fetch 10 -> always ALU-bound (Sec. III-D).
  for (const DomainSizePoint& p : r.points) {
    EXPECT_EQ(p.m.stats.bottleneck, sim::Bottleneck::kAlu);
  }
}

TEST(RegisterUsageTest, GprAxisMatchesPaperRange) {
  Runner runner(MakeRV770());
  RegisterUsageConfig config;
  config.domain = kSmall;
  const RegisterUsageResult r =
      RunRegisterUsage(runner, ShaderMode::kPixel, DataType::kFloat, config);
  ASSERT_EQ(r.points.size(), 8u);
  EXPECT_GE(r.points.front().gpr_count, 63u);
  EXPECT_LE(r.points.back().gpr_count, 12u);
}

TEST(AdvisorTest, SuggestionsTrackBottleneck) {
  Runner runner(MakeRV770());
  sim::LaunchConfig launch;
  launch.domain = kSmall;

  GenericSpec alu_spec;
  alu_spec.inputs = 4;
  alu_spec.alu_ops = 512;
  const Measurement alu_m =
      runner.Measure(GenerateGeneric(alu_spec), launch);
  const Advice alu_advice = Advise(alu_m, ShaderMode::kPixel, {64, 1});
  EXPECT_EQ(alu_advice.bound, sim::Bottleneck::kAlu);
  ASSERT_FALSE(alu_advice.suggestions.empty());
  EXPECT_NE(alu_advice.Render().find("ALU-bound"), std::string::npos);

  GenericSpec fetch_spec;
  fetch_spec.inputs = 16;
  fetch_spec.alu_ops = 16;
  const Measurement fetch_m =
      runner.Measure(GenerateGeneric(fetch_spec), launch);
  const Advice fetch_advice =
      Advise(fetch_m, ShaderMode::kCompute, {64, 1});
  EXPECT_EQ(fetch_advice.bound, sim::Bottleneck::kFetch);
  bool mentions_block = false;
  for (const std::string& s : fetch_advice.suggestions) {
    mentions_block |= s.find("4x16") != std::string::npos;
  }
  EXPECT_TRUE(mentions_block);
}

TEST(SuiteReportTest, QuickReportMentionsEveryFigure) {
  SuiteOptions options;
  options.quick = true;
  options.arch_filter = "RV770";
  const std::string report = RunFullSuiteReport(options);
  for (const char* needle :
       {"TABLE I", "Fig. 7", "Figs. 11-12", "Figs. 13-14", "Fig. 16",
        "4870 Pixel Float"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(SupplementaryFiguresTest, SlugsMatchIdsAndStayOutOfTheRegistry) {
  for (const figures::FigureDef& def : figures::Supplementary()) {
    EXPECT_EQ(def.slug, report::FigureSlug(def.id));
    EXPECT_EQ(figures::Find(def.slug), nullptr) << def.slug;
    EXPECT_EQ(figures::Find(def.slug, figures::Supplementary()), &def);
  }
}

// An interrupted bench binary cancels its sweeps: a supplementary figure
// built with an already-cancelled token must not measure a single point.
TEST(SupplementaryFiguresTest, CancelledBuildMeasuresNoPoint) {
  exec::CancelToken cancelled;
  cancelled.Cancel();
  figures::RunOptions opts;
  opts.quick = true;
  opts.cancel = &cancelled;
  const exec::KernelCache& cache = exec::KernelCache::Shared();
  for (const figures::FigureDef& def : figures::Supplementary()) {
    SCOPED_TRACE(def.slug);
    const exec::KernelCacheStats before = cache.Stats();
    const report::Figure figure = figures::Build(def, opts);
    const exec::KernelCacheStats after = cache.Stats();
    EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
    for (const Series& series : figure.set.All()) {
      EXPECT_TRUE(series.Points().empty()) << series.Name();
    }
  }
}

// The row-locality ablation runs through suite::Sweep with one fault-
// schedule name per (shape, penalty) point: injected launch faults
// degrade individual points instead of escaping as a CalError.
TEST(SupplementaryFiguresTest, RowLocalityDegradesUnderLaunchFaults) {
  const figures::FigureDef* def = figures::Find(
      "ablation_dram_row_activation_penalty_on_fills",
      figures::Supplementary());
  ASSERT_NE(def, nullptr);
  const fault::ScopedFaultInjector faults("launch:0.5,seed=7");
  figures::RunOptions opts;
  opts.quick = true;
  opts.retry = exec::RetryPolicy{};
  opts.retry.backoff_base_ms = 0.0;
  std::optional<report::Figure> figure;
  ASSERT_NO_THROW(figure.emplace(figures::Build(*def, opts)));
  // 3 shapes x 5 penalties. Under one shared schedule name every point
  // would draw the same faults: all of them degraded, or none.
  EXPECT_GT(figure->degradations.size(), 0u);
  EXPECT_LT(figure->degradations.size(), 15u);
}

}  // namespace
}  // namespace amdmb::suite
