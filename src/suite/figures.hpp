// The figure definitions: the paper's numbered figures (the registry)
// and the supplementary ones, as runnable definitions.
//
// A FigureDef is the only way a figure gets built: it carries the
// metadata plus one CurveDef per curve. Every bench binary registers its
// google-benchmarks from one (bench::RunBenchMain), the amdmb_serve
// daemon runs the very same definitions for sweep requests — so a
// served figure document is byte-identical to the one the standalone
// binary writes — and the condensed suite report reads its tables off
// the registry's findings.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/run_report.hpp"
#include "il/il.hpp"
#include "report/record.hpp"
#include "sim/gpu.hpp"
#include "suite/sweep.hpp"

namespace amdmb::suite::figures {

/// How to run a figure build: the execution options every curve's sweep
/// runs with, plus the scale. The bench binaries pass the environment
/// snapshot (quick = AMDMB_QUICK, process interrupt token); the serve
/// daemon passes the request's quick flag and its own cancellation. A
/// non-null `adaptive` is reflected in `figure.meta.adaptive`.
struct RunOptions : ExecOptions {
  bool quick = false;
};

/// One curve of a figure. `run` executes the sweep, appends the curve's
/// series / findings / degradations / profiles to the figure record,
/// and returns the simulated seconds the bench binary reports as its
/// "sim_seconds" counter (the last successful point's time, 0.0 when
/// the sweep produced no points).
struct CurveDef {
  std::string name;  ///< Benchmark-name suffix ("4870 Pixel Float").
  std::function<double(report::Figure&, const RunOptions&)> run;
};

/// One reproducible figure of the paper.
struct FigureDef {
  std::string slug;          ///< Canonical slug ("fig_7"), = FigureSlug(id).
  std::string bench_prefix;  ///< google-benchmark prefix ("Fig07").
  std::string id;            ///< "Fig. 7 — ALU:Fetch Ratio for 16 Inputs".
  std::string title;
  std::string x_label;
  std::string y_label;
  std::string paper_claim;
  std::string what;  ///< One-line description for listings.
  std::vector<CurveDef> curves;
};

/// Every registered figure, in paper order. Figs. 7-17 (Fig. 15 splits
/// into 15a/15b, one per shader mode, exactly as the bench binary
/// emits them).
const std::vector<FigureDef>& Registry();

/// The figures beyond the paper's numbered ones: Table I, the
/// block-size extension, and the four ablations. Their bench binaries
/// build them like registry figures, but they are not served,
/// benchmarked, or refined adaptively, and Find() does not see them.
const std::vector<FigureDef>& Supplementary();

/// Slug normalization for lookups: lower-cases, drops every
/// non-alphanumeric character, and strips leading zeros from digit runs
/// so "fig07", "fig_7", "Fig7" all name the same figure.
std::string NormalizeSlug(std::string_view name);

/// Finds a figure of `defs` by (normalized) slug; nullptr when unknown.
const FigureDef* Find(std::string_view name,
                      const std::vector<FigureDef>& defs = Registry());

/// Called after each curve completes: (curve index, curve count, curve
/// name, the figure record built so far).
using CurveCallback = std::function<void(
    std::size_t, std::size_t, const std::string&, const report::Figure&)>;

/// Runs every curve of `def` in order and returns the finalized figure
/// record — the exact record the bench binary's sinks would print.
/// `figure.meta.quick` reflects opts.quick (the request scale), not the
/// process environment.
report::Figure Build(const FigureDef& def, const RunOptions& opts,
                     const CurveCallback& on_curve = {});

/// The empty record `def`'s curves append to.
report::Figure NewRecord(const FigureDef& def);

/// Stamps the meta block of a record whose curves ran with `opts`.
void FinalizeRecord(report::Figure& figure, const RunOptions& opts);

/// Converts every non-ok point of `run` into a typed Degradation on the
/// record, attributed to `curve`.
void NoteFaults(report::Figure& figure, const std::string& curve,
                const exec::RunReport& run);

/// One representative operating point of a registry figure: the exact
/// generated kernel, architecture, and launch the figure's sweep
/// measures there. The kerncap cross-validation test prints the
/// kernel's IL, re-ingests it through the untrusted-input intake, and
/// measures at this launch — the result must match the registry path
/// bit-for-bit (KernelStats operator==), bottleneck verdict included.
struct CrossCheckPoint {
  std::string figure;  ///< Registry slug ("fig_7").
  std::string curve;   ///< CurveKey name ("4870 Pixel Float").
  std::string point;   ///< Sweep point label ("alufetch_r0.25").
  il::Kernel kernel;
  GpuArch arch;
  sim::LaunchConfig config;
};

/// Quick-scale (256x256 domain) operating points covering every
/// registry figure family across its architectures and shader modes.
std::vector<CrossCheckPoint> CrossCheckPoints();

/// Converts every profiled point of a sweep into a typed ProfileEntry
/// on the record, which keeps the point's full profile. A no-op when
/// profiling was off.
template <typename Points>
void NoteProfiles(report::Figure& figure, const std::string& curve,
                  const Points& points) {
  for (const auto& point : points) {
    if (point.m.profile == nullptr) continue;
    figure.profiles.push_back(report::MakeProfileEntry(
        curve, point.m.profile, sim::ToString(point.m.stats.bottleneck)));
  }
}

}  // namespace amdmb::suite::figures
