// The traced run's per-layer numbers.
//
// The split between il, compiler, sim and mem is measured from outside
// the program: a layer replay takes a set of launches (a kernel, an
// architecture and a launch configuration each), and times every layer's
// public entry point on them in turn, with a span around each call:
//   il::Print -> il::Parse -> il::Verify -> compiler::Compile (cold)
//   -> KernelCache::Compile (miss, then the timed hit) -> Gpu::Execute
// plus kerncap::Analyze once per distinct kernel text. Execute's own
// KernelStats supply the sim and mem counters of the same launches.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "il/il.hpp"
#include "metrics.hpp"
#include "sim/gpu.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayLaunch {
  amdmb::il::Kernel kernel;
  amdmb::GpuArch arch;
  amdmb::sim::LaunchConfig config;
};

/// The launches kerncap::Characterize makes for `kernel` at the given
/// square domains: every eligible (arch, mode) curve at each domain.
std::vector<ReplayLaunch> CharacterizeLaunches(
    const amdmb::il::Kernel& kernel, const std::vector<unsigned>& domains);

/// Every per-layer number all workloads report, in one place so each
/// workload prints the same metric set in the same order.
struct LayerNumbers {
  // Replay (mean host ns per call, counts summed over the launches).
  double il_print_ns = 0, il_parse_ns = 0, il_verify_ns = 0;
  double compile_ns = 0, analyze_ns = 0, cache_lookup_ns = 0;
  double execute_ns_alu = 0, execute_ns_fetch = 0, execute_ns_memory = 0;
  std::uint64_t launches = 0, cycles = 0, wavefronts = 0;
  double ns_per_wavefront = 0;
  std::uint64_t cache_probes = 0, cache_hits = 0;
  std::uint64_t dram_batches = 0, dram_row_switches = 0;
  double ns_per_probe = 0;
  // Workload (filled by the workload).
  double kernelgen_ns = 0;  ///< Mean ns per generated kernel.
  std::uint64_t kernel_cache_hits = 0, kernel_cache_misses = 0;
  double serialize_ns = 0, parse_ns = 0, doc_bytes = 0;
  double overhead_frac = 0;
};

/// Runs the replay, recording spans into `spans`, and fills the replay
/// half of `out`. `spans` must be enabled.
void ReplayLayers(const std::vector<ReplayLaunch>& launches,
                  SpanRecorder& spans, LayerNumbers& out);

/// Parses every document back through report::LoadFigureJson under a
/// "report.parse" span and sets out.doc_bytes to their mean size.
void ParseDocuments(const std::vector<std::string>& documents,
                    SpanRecorder& spans, LayerNumbers& out);

/// The per-layer metric set, in its fixed order. Every workload reports
/// all of it, so it holds no number that is zero by construction on some
/// workload: the replay's execute time is reported in total plus the
/// ALU-bound share, and the split by bottleneck (kerncap_alu has no
/// memory-bound launch) goes with the workload-specific lines.
std::vector<Metric> LayerMetrics(const LayerNumbers& n);

/// sim.execute_ns.{alu,fetch,memory}: replay execute time grouped by the
/// bottleneck each launch returned.
std::vector<Metric> ExecuteByBottleneck(const LayerNumbers& n);

/// Mean duration of the spans called `name` (0 when there are none).
double MeanNs(const std::map<std::string, SpanTotals>& totals,
              const std::string& name);

/// Cost of recording one span, measured on this machine now.
double SpanCostNs();

}  // namespace perfbench
