#include "suite/suite.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/status.hpp"
#include "common/table.hpp"
#include "exec/sweep_executor.hpp"
#include "report/record.hpp"
#include "suite/figures.hpp"

namespace amdmb::suite {

namespace {

std::vector<GpuArch> SelectArchs(const SuiteOptions& options) {
  if (options.arch_filter.empty()) return AllArchs();
  return {ArchByName(options.arch_filter)};
}

/// Table cell for a finding's value: fixed-precision number, ">sweep"
/// for a censored crossover, "n/a" when the finding is absent (the
/// sweep produced no points).
std::string Cell(const report::Finding* finding, int precision,
                 const char* censored = "n/a") {
  if (finding == nullptr) return "n/a";
  if (!finding->value.has_value()) return censored;
  return FormatDouble(*finding->value, precision);
}

/// Integer-valued cell (GPR counts).
std::string IntCell(const report::Finding* finding) {
  if (finding == nullptr || !finding->value.has_value()) return "n/a";
  return std::to_string(static_cast<unsigned>(*finding->value));
}

/// One registry curve run into its own record.
struct CurveRecord {
  std::string name;
  report::Figure record;
};

/// The curves of registry figure `slug` whose names are in `names`, in
/// registry order. Curves fan out across the worker pool; each curve's
/// own sweeps then run inline on its worker (nested sweeps execute
/// serially), so the records are bit-identical at any thread count.
std::vector<CurveRecord> RunCurves(std::string_view slug,
                                   const std::vector<std::string>& names,
                                   const figures::RunOptions& opts) {
  const figures::FigureDef* def = figures::Find(slug);
  Check(def != nullptr, "suite report: registry figure missing");
  std::vector<const figures::CurveDef*> curves;
  for (const figures::CurveDef& curve : def->curves) {
    if (std::find(names.begin(), names.end(), curve.name) != names.end()) {
      curves.push_back(&curve);
    }
  }
  return exec::SweepExecutor::Default().Map(
      curves.size(), [&](std::size_t i) {
        CurveRecord out{curves[i]->name, figures::NewRecord(*def)};
        curves[i]->run(out.record, opts);
        return out;
      });
}

}  // namespace

std::string RunFullSuiteReport(const SuiteOptions& options) {
  std::ostringstream os;
  const std::vector<CurveKey> keys =
      PaperCurves(true, true, SelectArchs(options));
  std::vector<std::string> names;
  for (const CurveKey& key : keys) names.push_back(key.Name());
  figures::RunOptions opts;
  opts.quick = options.quick;
  // Non-ok sweep points across every section; printed as a trailing
  // "Fault annotations" block only when at least one point degraded, so
  // a fault-free run renders byte-identically to earlier releases.
  std::vector<report::Degradation> degradations;
  const auto note = [&](const std::vector<report::Degradation>& more) {
    degradations.insert(degradations.end(), more.begin(), more.end());
  };

  os << RenderHardwareTable() << "\n";

  // --- ALU:Fetch crossovers (Fig. 7 condensed) --------------------------
  {
    TextTable table({"Curve", "Crossover ratio", "Flat-region time (s)",
                     "Time at max ratio (s)"});
    for (const CurveRecord& c : RunCurves("fig_7", names, opts)) {
      const std::vector<report::Finding>& f = c.record.findings;
      // An empty sweep has no findings at all; its crossover still
      // reads ">sweep".
      const report::Finding* crossover =
          report::FindFinding(f, "alu_bound_crossover");
      table.AddRow(
          {c.name,
           crossover == nullptr ? ">sweep" : Cell(crossover, 2, ">sweep"),
           Cell(report::FindFinding(f, "fetch_bound_flat_seconds"), 2),
           Cell(report::FindFinding(f, "max_ratio_seconds"), 2)});
      note(c.record.degradations);
    }
    os << "ALU:Fetch ratio micro-benchmark (paper Fig. 7)\n"
       << "Paper claim: float crosses to ALU-bound far earlier than float4; "
          "compute 64x1 crosses later than pixel mode.\n"
       << table.Render() << "\n";
  }

  // --- Read latency slopes (Figs. 11-12 condensed) ----------------------
  {
    TextTable table({"Curve", "Path", "sec/input", "R^2"});
    for (const auto& [slug, path] :
         {std::pair{"fig_11", ReadPath::kTexture},
          std::pair{"fig_12", ReadPath::kGlobal}}) {
      for (const CurveRecord& c : RunCurves(slug, names, opts)) {
        const std::vector<report::Finding>& f = c.record.findings;
        table.AddRow({c.name, std::string(ToString(path)),
                      Cell(report::FindFinding(f, "seconds_per_input"), 3),
                      Cell(report::FindFinding(f, "fit_r2"), 3)});
        note(c.record.degradations);
      }
    }
    os << "Read latency micro-benchmarks (paper Figs. 11-12)\n"
       << "Paper claim: latency is linear in the input count; float4 "
          "texture fetches cost ~4x float; RV670 global reads are far "
          "slower than its texture path.\n"
       << table.Render() << "\n";
  }

  // --- Write latency slopes (Figs. 13-14 condensed) ---------------------
  {
    TextTable table({"Curve", "Path", "sec/output", "R^2"});
    for (const auto& [slug, path] :
         {std::pair{"fig_13", WritePath::kStream},
          std::pair{"fig_14", WritePath::kGlobal}}) {
      for (const CurveRecord& c : RunCurves(slug, names, opts)) {
        const std::vector<report::Finding>& f = c.record.findings;
        table.AddRow({c.name, std::string(ToString(path)),
                      Cell(report::FindFinding(f, "seconds_per_output"), 3),
                      Cell(report::FindFinding(f, "fit_r2"), 3)});
        note(c.record.degradations);
      }
    }
    os << "Write latency micro-benchmarks (paper Figs. 13-14)\n"
       << "Paper claim: linear in the output count; global writes move "
          "each 32-bit element at a constant rate (float4 ~ 4x float); "
          "streaming stores burst (float4 ~ float).\n"
       << table.Render() << "\n";
  }

  // --- Register pressure (Fig. 16 condensed) ----------------------------
  {
    TextTable table({"Curve", "GPR max", "time (s)", "GPR min", "time (s)",
                     "control flat?"});
    const std::vector<CurveRecord> sweeps = RunCurves("fig_16", names, opts);
    Check(sweeps.size() == keys.size(),
          "suite report: Fig. 16 curves do not match the paper curves");
    // The Fig. 5 clause-usage control is not a registry curve: it keeps
    // its own sweep, at the scale of the Fig. 16 sweep it controls.
    RegisterUsageConfig control_config;
    control_config.clause_control = true;
    if (options.quick) control_config.domain = Domain{256, 256};
    const auto controls = exec::SweepExecutor::Default().Map(
        keys.size(), [&](std::size_t i) {
          const Runner runner(keys[i].arch);
          return RunRegisterUsage(runner, keys[i].mode, keys[i].type,
                                  control_config);
        });
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const CurveRecord& c = sweeps[i];
      const std::vector<report::Finding>& f = c.record.findings;
      const std::vector<report::Finding> control_findings =
          ControlFindings(controls[i], c.name + " control");
      std::string flat = "n/a";
      if (const report::Finding* variation =
              report::FindFinding(control_findings, "level_variation")) {
        flat = *variation->value < 0.2 ? "yes" : "NO";
      }
      table.AddRow({c.name, IntCell(report::FindFinding(f, "gpr_max")),
                    Cell(report::FindFinding(f, "gpr_max_seconds"), 2),
                    IntCell(report::FindFinding(f, "gpr_min")),
                    Cell(report::FindFinding(f, "gpr_min_seconds"), 2),
                    flat});
      note(c.record.degradations);
      note(report::DegradationsFrom(controls[i].report,
                                    c.name + " control"));
    }
    os << "Register usage micro-benchmark (paper Fig. 16 + Fig. 5 control)\n"
       << "Paper claim: lowering register pressure raises occupancy and "
          "cuts runtime until the kernel goes ALU-bound; the clause-usage "
          "control (sampling up front) stays flat.\n"
       << table.Render() << "\n";
  }

  if (!degradations.empty()) {
    os << "Fault annotations (degraded sweep points)\n";
    for (const report::Degradation& d : degradations) {
      os << "  " << d.Render() << "\n";
    }
    os << "\n";
  }

  return os.str();
}

}  // namespace amdmb::suite
