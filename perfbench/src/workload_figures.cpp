// figures_quick — the user's "reproduce the paper" path.
//
// Builds every registry figure at quick scale, densely, through
// figures::Build on a width-1 SweepExecutor, in a seeded order; only the
// order depends on the seed. Each pass starts from an empty kernel cache,
// as a fresh reproduction would. src/mem does most of the work here
// (texture-cache probes, DRAM row penalties, tiling), so a mem
// optimisation should move points_per_s here and nothing on kerncap_alu.
#include <map>

#include "documents.hpp"
#include "exec/kernel_cache.hpp"
#include "generators.hpp"
#include "layers.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace am = amdmb;
namespace figures = amdmb::suite::figures;

namespace {

/// A curve slower than this misses the latency limit (goodput_per_s).
/// The slowest quick curves (Figs. 16/17) take about a third of it.
constexpr double kCurveLimitS = 1.0;

/// Every run covers the registry at least this many times.
constexpr std::size_t kMinPasses = 2;

struct FiguresSetup {
  std::vector<const figures::FigureDef*> order;
  DigestTable reference;
};

FiguresSetup Setup(const Options& options) {
  FiguresSetup setup;
  std::vector<std::string> slugs;
  for (const figures::FigureDef& def : figures::Registry()) {
    slugs.push_back(def.slug);
  }
  for (const std::string& slug : FigureOrder(slugs, options.seed)) {
    setup.order.push_back(figures::Find(slug));
  }
  setup.reference = LoadDigests(options.reference_dir / "figures.txt");
  return setup;
}

}  // namespace

void SetupFigures(const Options& options) { (void)Setup(options); }

RunResult RunFiguresQuick(const Options& options) {
  const FiguresSetup setup = Setup(options);
  SpanRecorder spans(options.trace);
  const am::exec::SweepExecutor serial(1);
  figures::RunOptions run;
  run.quick = true;
  run.executor = &serial;

  Gate gate(setup.reference);
  std::vector<double> curve_s;  // Every curve of every pass.
  std::map<std::string, double> figure_s;
  std::vector<std::string> documents;
  std::size_t points = 0, passes = 0;
  std::uint64_t compiled = 0, hits = 0;
  double busy_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    am::exec::KernelCache::Shared().Clear();
    const Clock::time_point pass_start = Clock::now();
    for (const figures::FigureDef* def : setup.order) {
      const ScopedSpan fig_span(spans, "suite.figure." + def->slug, passes);
      const Clock::time_point fig_start = Clock::now();
      Clock::time_point curve_start = fig_start;
      const am::report::Figure figure = figures::Build(
          *def, run,
          [&](std::size_t, std::size_t, const std::string&,
              const am::report::Figure&) {
            const Clock::time_point now = Clock::now();
            spans.Add("suite.curve", curve_start, now, passes);
            curve_s.push_back(Seconds(curve_start, now));
            curve_start = now;
          });
      const double build_s = Seconds(fig_start, Clock::now());
      figure_s[def->slug] += build_s;
      busy_s += build_s;
      points += CountPoints(figure);
      std::string json;
      {
        const ScopedSpan s(spans, "report.serialize", passes);
        json = am::report::BenchJson(figure);
      }
      gate.Check(def->slug, json);
      if (options.trace && passes == 0) documents.push_back(std::move(json));
    }
    const am::exec::KernelCacheStats cache =
        am::exec::KernelCache::Shared().Stats();
    compiled += cache.misses;
    hits += cache.hits;
    ++passes;
    // Whole passes only, so every figure weighs the same in every run; at
    // least kMinPasses. Stop when another pass would overrun the window
    // by more than 5%.
    const Clock::time_point now = Clock::now();
    if (passes >= kMinPasses &&
        Seconds(start, now) + Seconds(pass_start, now) >
            options.seconds * 1.05) {
      break;
    }
  }

  RunResult result;
  result.attempted = curve_s.size() + gate.Checked();
  result.failed = gate.Failed();
  result.first_failure = gate.FirstFailure();
  std::size_t on_time = 0;
  for (const double s : curve_s) on_time += s <= kCurveLimitS ? 1 : 0;

  if (!options.trace) {
    result.Add("points_per_s", "1/s", points / busy_s);
    result.Add("kernels_per_s", "1/s", compiled / busy_s);
    result.Add("latency_p50_s", "s", Quantile(curve_s, 50));
    result.Add("latency_p90_s", "s", Quantile(curve_s, 90));
    result.Add("goodput_per_s", "1/s", on_time / busy_s);
    result.Add("peak_rss_mb", "MiB", SelfPeakRssMb());
    result.AddExtra("passes", "count", passes);
    result.AddExtra("latency_samples", "count", curve_s.size());
    result.AddExtra("latency_limit_s", "s", kCurveLimitS);
    return result;
  }

  LayerNumbers layers;
  layers.kernel_cache_hits = hits;
  layers.kernel_cache_misses = compiled;
  const std::size_t workload_spans = spans.Spans().size();
  const double workload_s = Seconds(start, Clock::now());
  ParseDocuments(documents, spans, layers);
  std::vector<figures::CrossCheckPoint> checkpoints;
  {
    const ScopedSpan s(spans, "suite.kernelgen");
    checkpoints = figures::CrossCheckPoints();
  }
  std::vector<ReplayLaunch> launches;
  for (figures::CrossCheckPoint& p : checkpoints) {
    launches.push_back({std::move(p.kernel), p.arch, p.config});
  }
  ReplayLayers(launches, spans, layers);
  const auto totals = spans.Totals();
  layers.kernelgen_ns = MeanNs(totals, "suite.kernelgen") / launches.size();
  layers.serialize_ns = MeanNs(totals, "report.serialize");
  layers.parse_ns = MeanNs(totals, "report.parse");
  layers.overhead_frac =
      workload_spans * SpanCostNs() / (workload_s * 1e9);
  result.metrics = LayerMetrics(layers);
  result.extra = ExecuteByBottleneck(layers);
  for (const auto& [slug, seconds] : figure_s) {
    result.AddExtra("suite.figure_s." + slug, "s", seconds / passes);
  }
  result.AddExtra("mem.cache_probes_per_launch", "count",
                  static_cast<double>(layers.cache_probes) / layers.launches);
  WriteTrace(options, spans);
  return result;
}

}  // namespace perfbench
