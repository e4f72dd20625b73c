#include "layers.hpp"

#include <set>
#include <string>

#include "compiler/compiler.hpp"
#include "exec/kernel_cache.hpp"
#include "il/parser.hpp"
#include "il/printer.hpp"
#include "il/verifier.hpp"
#include "kerncap/characterize.hpp"
#include "kerncap/intake.hpp"
#include "report/load.hpp"

namespace perfbench {

namespace am = amdmb;

double MeanNs(const std::map<std::string, SpanTotals>& totals,
              const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

namespace {

double TotalNs(const std::map<std::string, SpanTotals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}

const char* ExecuteSpan(am::sim::Bottleneck bottleneck) {
  switch (bottleneck) {
    case am::sim::Bottleneck::kAlu:
      return "sim.execute.alu";
    case am::sim::Bottleneck::kFetch:
      return "sim.execute.fetch";
    case am::sim::Bottleneck::kMemory:
      return "sim.execute.memory";
  }
  return "sim.execute";
}

}  // namespace

std::vector<ReplayLaunch> CharacterizeLaunches(
    const am::il::Kernel& kernel, const std::vector<unsigned>& domains) {
  std::vector<ReplayLaunch> launches;
  for (const am::suite::CurveKey& key : am::kerncap::EligibleCurves(kernel)) {
    for (const unsigned domain : domains) {
      am::sim::LaunchConfig launch;
      launch.domain = am::Domain{domain, domain};
      launch.mode = key.mode;
      launch.block = am::BlockShape{64, 1};
      launch.repetitions = am::suite::kPaperRepetitions;
      launches.push_back({kernel, key.arch, launch});
    }
  }
  return launches;
}

void ReplayLayers(const std::vector<ReplayLaunch>& launches,
                  SpanRecorder& spans, LayerNumbers& out) {
  // A private cache keeps the workload's shared-cache statistics clean
  // and makes the first lookup of every kernel a miss.
  am::exec::KernelCache cache(launches.size() + 1);
  std::set<std::string> analyzed;
  std::uint64_t fetch_probes = 0;
  double fetch_ns = 0.0;
  double execute_ns = 0.0;
  const ScopedSpan replay(spans, "replay");
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const ReplayLaunch& l = launches[i];
    const ScopedSpan launch(spans, "replay.launch", i);
    std::string text;
    {
      const ScopedSpan s(spans, "il.print", i);
      text = am::il::Print(l.kernel);
    }
    am::il::Kernel parsed;
    {
      const ScopedSpan s(spans, "il.parse", i);
      parsed = am::il::Parse(text);
    }
    {
      const ScopedSpan s(spans, "il.verify", i);
      am::Require(am::il::Verify(parsed).ok(), "replay: kernel fails Verify");
    }
    {
      const ScopedSpan s(spans, "compiler.compile", i);
      (void)am::compiler::Compile(parsed, l.arch);
    }
    if (analyzed.insert(text).second) {
      const ScopedSpan s(spans, "kerncap.analyze", i);
      am::Require(am::kerncap::Analyze(text).ok(),
                  "replay: kerncap rejects a generated kernel");
    }
    (void)cache.Compile(l.kernel, l.arch);  // The miss; not timed.
    std::shared_ptr<const am::isa::Program> program;
    {
      const ScopedSpan s(spans, "exec.cache_lookup", i);
      program = cache.Compile(l.kernel, l.arch);
    }
    const am::sim::Gpu gpu(l.arch);
    const Clock::time_point start = Clock::now();
    const am::sim::KernelStats stats = gpu.Execute(*program, l.config);
    const Clock::time_point end = Clock::now();
    const double ns = Seconds(start, end) * 1e9;
    spans.Add(ExecuteSpan(stats.bottleneck), start, end, i);

    const std::uint64_t probes = stats.cache.hits + stats.cache.misses;
    execute_ns += ns;
    ++out.launches;
    out.cycles += stats.cycles;
    out.wavefronts += stats.wavefront_count;
    out.cache_probes += probes;
    out.cache_hits += stats.cache.hits;
    out.dram_batches += stats.dram.batches;
    out.dram_row_switches += stats.dram.row_switches;
    if (stats.bottleneck == am::sim::Bottleneck::kFetch) {
      fetch_probes += probes;
      fetch_ns += ns;
    }
  }
  const auto totals = spans.Totals();
  out.il_print_ns = MeanNs(totals, "il.print");
  out.il_parse_ns = MeanNs(totals, "il.parse");
  out.il_verify_ns = MeanNs(totals, "il.verify");
  out.compile_ns = MeanNs(totals, "compiler.compile");
  out.analyze_ns = MeanNs(totals, "kerncap.analyze");
  out.cache_lookup_ns = MeanNs(totals, "exec.cache_lookup");
  out.execute_ns_alu = TotalNs(totals, "sim.execute.alu");
  out.execute_ns_fetch = TotalNs(totals, "sim.execute.fetch");
  out.execute_ns_memory = TotalNs(totals, "sim.execute.memory");
  out.ns_per_wavefront = out.wavefronts == 0
                             ? 0.0
                             : execute_ns / static_cast<double>(out.wavefronts);
  out.ns_per_probe =
      fetch_probes == 0 ? 0.0 : fetch_ns / static_cast<double>(fetch_probes);
}

void ParseDocuments(const std::vector<std::string>& documents,
                    SpanRecorder& spans, LayerNumbers& out) {
  double bytes = 0.0;
  for (const std::string& json : documents) {
    const ScopedSpan s(spans, "report.parse");
    (void)am::report::LoadFigureJson(json);
    bytes += static_cast<double>(json.size());
  }
  out.doc_bytes = documents.empty() ? 0.0 : bytes / documents.size();
}

std::vector<Metric> LayerMetrics(const LayerNumbers& n) {
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t lookups = n.kernel_cache_hits + n.kernel_cache_misses;
  const double execute_ns =
      n.execute_ns_alu + n.execute_ns_fetch + n.execute_ns_memory;
  return {
      {"suite.kernelgen_ns", "ns", n.kernelgen_ns},
      {"il.print_ns", "ns", n.il_print_ns},
      {"il.parse_ns", "ns", n.il_parse_ns},
      {"il.verify_ns", "ns", n.il_verify_ns},
      {"compiler.compile_ns", "ns", n.compile_ns},
      {"kerncap.analyze_ns", "ns", n.analyze_ns},
      {"exec.cache_lookup_ns", "ns", n.cache_lookup_ns},
      {"exec.cache_hits", "count", static_cast<double>(n.kernel_cache_hits)},
      {"exec.cache_misses", "count",
       static_cast<double>(n.kernel_cache_misses)},
      {"exec.cache_hit_ratio", "ratio", ratio(n.kernel_cache_hits, lookups)},
      {"sim.execute_ns", "ns", execute_ns},
      {"sim.execute_alu_share", "ratio",
       execute_ns == 0 ? 0.0 : n.execute_ns_alu / execute_ns},
      {"sim.launches", "count", static_cast<double>(n.launches)},
      {"sim.cycles", "cycles", static_cast<double>(n.cycles)},
      {"sim.wavefronts", "count", static_cast<double>(n.wavefronts)},
      {"sim.ns_per_wavefront", "ns", n.ns_per_wavefront},
      {"mem.cache_probes", "count", static_cast<double>(n.cache_probes)},
      {"mem.cache_hit_ratio", "ratio", ratio(n.cache_hits, n.cache_probes)},
      {"mem.dram_batches", "count", static_cast<double>(n.dram_batches)},
      {"mem.dram_row_switches", "count",
       static_cast<double>(n.dram_row_switches)},
      {"mem.ns_per_probe", "ns", n.ns_per_probe},
      {"report.serialize_ns", "ns", n.serialize_ns},
      {"report.parse_ns", "ns", n.parse_ns},
      {"report.doc_bytes", "bytes", n.doc_bytes},
      {"tracing.overhead_frac", "ratio", n.overhead_frac},
  };
}

std::vector<Metric> ExecuteByBottleneck(const LayerNumbers& n) {
  return {{"sim.execute_ns.alu", "ns", n.execute_ns_alu},
          {"sim.execute_ns.fetch", "ns", n.execute_ns_fetch},
          {"sim.execute_ns.memory", "ns", n.execute_ns_memory}};
}

double SpanCostNs() {
  constexpr int kSpans = 20000;
  SpanRecorder probe;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const ScopedSpan s(probe, "probe");
  }
  return Seconds(start, Clock::now()) * 1e9 / kSpans;
}

}  // namespace perfbench
