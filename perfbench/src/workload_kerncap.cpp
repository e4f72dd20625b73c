// kerncap_alu — a seeded stream of distinct ALU-bound kernels, each
// printed to IL text and submitted serially through kerncap::Analyze then
// kerncap::Characterize(quick).
//
// The sim core (Gpu::Execute, bundle slot counting, ALU clauses) does
// most of the work here and src/mem little: cache probes per launch are
// an order of magnitude fewer than on figures_quick, so a mem
// optimisation should show no change on this workload. No two kernels
// share work, so every compile is cold. It also exercises il::Verify's
// message building on every intake (ROADMAP item 2's target).
#include "documents.hpp"
#include "exec/kernel_cache.hpp"
#include "generators.hpp"
#include "kerncap/characterize.hpp"
#include "layers.hpp"
#include "report/json_sink.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace am = amdmb;

namespace {

/// A kernel slower than this misses the latency limit (goodput_per_s);
/// the slowest kernels of the stream take under half of it.
constexpr double kKernelLimitS = 0.25;

/// Kernels replayed layer by layer in the traced run (one block).
constexpr std::size_t kReplayKernels = kStrata;

struct KerncapSetup {
  std::vector<AluKernelSpec> stream;
  std::vector<std::string> il;
  DigestTable reference;
};

KerncapSetup Setup(const Options& options) {
  KerncapSetup setup;
  setup.stream = KernelStream(options.seed, kMaxBlockPairs);
  for (const AluKernelSpec& spec : setup.stream) setup.il.push_back(spec.Il());
  setup.reference = LoadDigests(options.reference_dir / "kernels.txt");
  return setup;
}

}  // namespace

void SetupKerncap(const Options& options) { (void)Setup(options); }

RunResult RunKerncapAlu(const Options& options) {
  const KerncapSetup setup = Setup(options);
  SpanRecorder spans(options.trace);
  const am::exec::SweepExecutor serial(1);
  am::kerncap::CharacterizeOptions characterize;
  characterize.quick = true;
  characterize.executor = &serial;

  Gate gate(setup.reference);
  std::vector<double> kernel_s;
  std::vector<std::string> documents;
  std::size_t points = 0, rejected = 0;
  const am::exec::KernelCacheStats cache_before =
      am::exec::KernelCache::Shared().Stats();
  const std::size_t per_pair = 2 * kStrata;
  const Clock::time_point start = Clock::now();
  std::size_t done = 0;
  while (done + per_pair <= setup.stream.size()) {
    for (std::size_t i = done; i < done + per_pair; ++i) {
      const ScopedSpan kernel_span(spans, "kerncap.kernel", i);
      const Clock::time_point t0 = Clock::now();
      const auto finish = [&] {
        kernel_s.push_back(Seconds(t0, Clock::now()));
      };
      am::kerncap::AnalyzeResult analyzed;
      {
        const ScopedSpan s(spans, "kerncap.analyze_call", i);
        analyzed = am::kerncap::Analyze(setup.il[i]);
      }
      if (!analyzed.ok()) {
        ++rejected;
        finish();
        continue;
      }
      std::string json;
      {
        const ScopedSpan s(spans, "kerncap.characterize", i);
        const am::report::Figure figure =
            am::kerncap::Characterize(*analyzed.prepared, characterize);
        points += CountPoints(figure);
        const ScopedSpan serialize(spans, "report.serialize", i);
        json = am::report::BenchJson(figure);
      }
      finish();
      gate.Check(setup.stream[i].Name(), json);
      if (options.trace && documents.size() < kReplayKernels) {
        documents.push_back(std::move(json));
      }
    }
    done += per_pair;
    // Whole block pairs only (see KernelStream); stop when another pair
    // would overrun the window by more than 5%.
    const double elapsed = Seconds(start, Clock::now());
    if (elapsed + elapsed * per_pair / done > options.seconds * 1.05) break;
  }
  double busy_s = 0.0;
  for (const double s : kernel_s) busy_s += s;
  const am::exec::KernelCacheStats cache_after =
      am::exec::KernelCache::Shared().Stats();

  RunResult result;
  result.attempted = kernel_s.size() + gate.Checked();
  result.failed = rejected + gate.Failed();
  result.first_failure = gate.FirstFailure();
  std::size_t on_time = 0;
  for (const double s : kernel_s) on_time += s <= kKernelLimitS ? 1 : 0;

  if (!options.trace) {
    result.Add("points_per_s", "1/s", points / busy_s);
    result.Add("kernels_per_s", "1/s", (kernel_s.size() - rejected) / busy_s);
    result.Add("latency_p50_s", "s", Quantile(kernel_s, 50));
    result.Add("latency_p90_s", "s", Quantile(kernel_s, 90));
    result.Add("goodput_per_s", "1/s", on_time / busy_s);
    result.Add("peak_rss_mb", "MiB", SelfPeakRssMb());
    result.AddExtra("latency_samples", "count", kernel_s.size());
    result.AddExtra("latency_limit_s", "s", kKernelLimitS);
    return result;
  }

  LayerNumbers layers;
  layers.kernel_cache_hits = cache_after.hits - cache_before.hits;
  layers.kernel_cache_misses = cache_after.misses - cache_before.misses;
  const std::size_t workload_spans = spans.Spans().size();
  ParseDocuments(documents, spans, layers);
  // Replay the first block's kernels at every launch of their
  // characterization.
  std::vector<ReplayLaunch> launches;
  {
    const ScopedSpan s(spans, "suite.kernelgen");
    for (std::size_t i = 0; i < kReplayKernels; ++i) {
      for (ReplayLaunch& l : CharacterizeLaunches(
               am::suite::GenerateGeneric(setup.stream[i].Generic()),
               am::kerncap::SweepDomains(true))) {
        launches.push_back(std::move(l));
      }
    }
  }
  ReplayLayers(launches, spans, layers);
  const auto totals = spans.Totals();
  layers.kernelgen_ns = MeanNs(totals, "suite.kernelgen") / kReplayKernels;
  layers.serialize_ns = MeanNs(totals, "report.serialize");
  layers.parse_ns = MeanNs(totals, "report.parse");
  layers.overhead_frac = workload_spans * SpanCostNs() / (busy_s * 1e9);
  result.metrics = LayerMetrics(layers);
  result.extra = ExecuteByBottleneck(layers);
  result.AddExtra("kerncap.characterize_ms", "ms",
                  MeanNs(totals, "kerncap.characterize") / 1e6);
  result.AddExtra("mem.cache_probes_per_launch", "count",
                  static_cast<double>(layers.cache_probes) / layers.launches);
  WriteTrace(options, spans);
  return result;
}

}  // namespace perfbench
