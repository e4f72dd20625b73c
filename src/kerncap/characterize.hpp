// The dynamic half of kerncap: run a prepared (intake-accepted) kernel
// through the simulator across every architecture and shader mode it is
// legal in, with hardware-counter profiling on every launch, and emit
// the result as a typed report::Figure through the existing sink stack.
//
// The sweep is auto-generated around the kernel's operating point: a
// square-domain ladder (wavefront count on the x axis) ending at the
// operating domain, where the bottleneck verdict — the simulator
// heuristic cross-checked against the counter-based attributor — is
// recorded as findings. Static SKA findings from intake ride along on
// the "<card> static" pseudo-curves, so one document carries the full
// static + dynamic characterization.
//
// Determinism contract (asserted by tests and the kerncap-smoke CI
// job): for a fixed kernel and quick flag, the figure's BenchJson is
// byte-identical across AMDMB_THREADS values and across single-daemon
// vs fleet runs. Env-dependent meta fields (threads, watchdog) are
// therefore pinned here instead of inherited from the process.
#pragma once

#include <string>
#include <vector>

#include "kerncap/intake.hpp"
#include "report/record.hpp"
#include "suite/figures.hpp"
#include "suite/microbench.hpp"
#include "suite/sweep.hpp"

namespace amdmb::kerncap {

/// Watchdog cycle budget per analysis launch. Generated IL is loop-free
/// so every launch terminates; the budget is the boundary's backstop
/// against a timing-model bug turning a submitted kernel into a hang.
inline constexpr Cycles kAnalysisWatchdogCycles = 2'000'000'000;

struct CharacterizeOptions {
  bool quick = false;
  Cycles watchdog_cycles = kAnalysisWatchdogCycles;
  /// Sweep points run through this executor (null = process default).
  /// Results are bit-identical at any width.
  const exec::SweepExecutor* executor = nullptr;
  /// Non-null refines the domain ladder adaptively (adapt::Refiner)
  /// instead of measuring every rung. The operating point (the last
  /// rung) is always in the coarse pass, so the bottleneck verdict is
  /// still taken at the same launch. Retry behaviour stays pinned to
  /// the analysis default, not AMDMB_RETRY, like the other env fields.
  const adapt::Settings* adaptive = nullptr;
};

/// Square-domain ladder swept per curve; the last entry is the
/// operating point the bottleneck verdict is taken at.
std::vector<unsigned> SweepDomains(bool quick);

/// Every (arch, mode) curve the kernel may legally run as: pixel mode
/// always, compute mode only on compute-capable archs and only for
/// kernels that do not stream to color buffers.
std::vector<suite::CurveKey> EligibleCurves(const il::Kernel& kernel);

/// Figure identity: "Kerncap — <name> <hash>". Unnumbered, so the slug
/// keeps the full text ("kerncap_<name>_<hash>") and two distinct
/// kernels never collide.
std::string FigureId(const Prepared& prepared);

/// report::FigureSlug(FigureId(...)) — the service's "figure" label.
std::string Slug(const Prepared& prepared);

/// One profiled measurement of the prepared kernel at an explicit
/// launch point. Shared by the sweep and the registry cross-validation
/// test, so both sides of the comparison run the identical path.
/// `attempt` is the retry layer's 1-based attempt number.
suite::Measurement MeasureAt(const Prepared& prepared, const GpuArch& arch,
                             const sim::LaunchConfig& config,
                             const std::string& point_label,
                             unsigned attempt = 1);

/// Runs the full characterization and returns the finalized figure.
/// `on_curve` streams per-curve completion exactly like
/// suite::figures::Build.
report::Figure Characterize(
    const Prepared& prepared, const CharacterizeOptions& options,
    const suite::figures::CurveCallback& on_curve = {});

}  // namespace amdmb::kerncap
