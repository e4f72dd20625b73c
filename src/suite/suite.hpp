// Umbrella header for the micro-benchmark suite — the paper's
// contribution — plus a run-everything driver used by the quickstart
// example.
#pragma once

#include "suite/alu_fetch.hpp"
#include "suite/block_size.hpp"
#include "suite/bottleneck.hpp"
#include "suite/domain_size.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"
#include "suite/read_latency.hpp"
#include "suite/register_usage.hpp"
#include "suite/write_latency.hpp"

namespace amdmb::suite {

/// Scales sweep densities / domains down for quick smoke runs.
struct SuiteOptions {
  bool quick = false;
  /// Restrict to one GPU (empty = all three generations).
  std::string arch_filter;
};

/// Runs a condensed version of every micro-benchmark on the selected
/// GPUs and renders a textual report: crossovers, latency slopes, and
/// register-pressure effects, each with the paper's qualitative claim
/// alongside. The tables are read off the findings of the registry's
/// Fig. 7, 11-14 and 16 curves (suite/figures.hpp) for the selected
/// GPUs; only the Fig. 5 clause-usage control runs its own sweep.
std::string RunFullSuiteReport(const SuiteOptions& options);

}  // namespace amdmb::suite
