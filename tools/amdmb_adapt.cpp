// amdmb_adapt — the adaptive-sweep driver and cross-checker.
//
// Verbs:
//   figure <slug> [--quick] [--tol N] [--budget N] [--json]
//       Runs the registry figure twice — densely and adaptively — and
//       diffs every crossover finding between the two documents. Each
//       crossover must agree within the refinement tolerance (tol grid
//       steps); the points-spent ratio is reported. --json prints the
//       adaptive document's BENCH JSON to stdout. Exit 0 agreement,
//       4 disagreement.
//   budget <fig_7|fig_8|fig_9> [--max-ratio F] [--tol N]
//       Runs the Fig. 7-9 ALU:Fetch family at the full 32-ratio grid
//       (quick 256x256 domains) and asserts the adaptive run spends at
//       most F (default 0.2) of the dense point count while agreeing on
//       every crossover. Exit 0 ok, 4 disagreement, 5 over budget.
//   frontier [--dense] [--quick] [--budget N] [--json]
//       Builds the 2D ALU:Fetch x register-step bottleneck frontier map
//       (adapt/frontier.hpp) and prints it through the text sink, or as
//       BENCH JSON with --json. AMDMB_JSON_DIR / AMDMB_DUMP_DIR write
//       the document, its CSV and the pm3d heatmap exactly like a bench
//       binary (the same report::WriteConfiguredSinks).
//   --list
//       Prints every registry figure slug usable with `figure`.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adapt/frontier.hpp"
#include "adapt/refiner.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "report/json_sink.hpp"
#include "report/sink.hpp"
#include "suite/alu_fetch.hpp"
#include "suite/figures.hpp"
#include "suite/microbench.hpp"

namespace {

using namespace amdmb;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <verb> [options]\n"
      << "  figure <slug> [--quick] [--tol N] [--budget N] [--json]\n"
      << "  budget <fig_7|fig_8|fig_9> [--max-ratio F] [--tol N]\n"
      << "  frontier [--dense] [--quick] [--budget N] [--json]\n"
      << "  --list, --version\n";
  return 2;
}

/// Largest adjacent x spacing over every dense curve: the unit the
/// refinement tolerance is expressed in for this figure.
double DenseGridStep(const report::Figure& dense) {
  double step = 0.0;
  for (const Series& series : dense.set.All()) {
    const auto& points = series.Points();
    for (std::size_t i = 1; i < points.size(); ++i) {
      step = std::max(step, points[i].x - points[i - 1].x);
    }
  }
  return step;
}

struct CrossoverDiff {
  std::string curve;
  std::string label;
  std::optional<double> dense;
  std::optional<double> adaptive;
  bool agree = false;
};

/// Diffs every kCrossover finding of the dense document against the
/// adaptive one. Adaptive-only findings (transition_to_*, emitted by
/// AdaptiveFindings) are not expected densely and are skipped.
std::vector<CrossoverDiff> DiffCrossovers(const report::Figure& dense,
                                          const report::Figure& adaptive,
                                          double tolerance_x) {
  std::vector<CrossoverDiff> diffs;
  for (const report::Finding& d : dense.findings) {
    if (d.kind != report::FindingKind::kCrossover) continue;
    CrossoverDiff diff;
    diff.curve = d.curve;
    diff.label = d.label;
    diff.dense = d.value;
    const report::Finding* a =
        report::FindFinding(adaptive.findings, d.label, d.curve);
    if (a == nullptr) {
      diff.agree = false;  // The adaptive run lost the finding entirely.
    } else {
      diff.adaptive = a->value;
      if (!d.value.has_value() && !a->value.has_value()) {
        diff.agree = true;  // Censored in both runs.
      } else if (d.value.has_value() && a->value.has_value()) {
        diff.agree =
            std::abs(*d.value - *a->value) <= tolerance_x + 1e-9;
      } else {
        diff.agree = false;
      }
    }
    diffs.push_back(diff);
  }
  return diffs;
}

std::string RenderValue(const std::optional<double>& value) {
  return value.has_value() ? FormatDouble(*value, 4) : "censored";
}

/// Sum of the per-curve "adaptive_points" findings — the points the
/// refiner actually measured across the whole figure.
double AdaptivePointsSpent(const report::Figure& adaptive) {
  double spent = 0.0;
  for (const report::Finding& f : adaptive.findings) {
    if (f.label == "adaptive_points" && f.value.has_value()) {
      spent += *f.value;
    }
  }
  return spent;
}

int RunFigure(const std::string& slug, bool quick, adapt::Settings settings,
              bool json) {
  const suite::figures::FigureDef* def = suite::figures::Find(slug);
  if (def == nullptr) {
    std::cerr << "error: unknown figure slug: " << slug << "\n";
    return 2;
  }
  suite::figures::RunOptions dense_opts;
  dense_opts.quick = quick;
  const report::Figure dense = suite::figures::Build(*def, dense_opts);

  suite::figures::RunOptions adaptive_opts = dense_opts;
  adaptive_opts.adaptive = &settings;
  const report::Figure adaptive = suite::figures::Build(*def, adaptive_opts);

  const double step = DenseGridStep(dense);
  const double tolerance_x = settings.tol_steps * step;
  const std::vector<CrossoverDiff> diffs =
      DiffCrossovers(dense, adaptive, tolerance_x);

  std::size_t dense_points = 0;
  for (const Series& series : dense.set.All()) {
    dense_points += series.Points().size();
  }
  const double spent = AdaptivePointsSpent(adaptive);

  std::size_t disagreements = 0;
  std::cerr << def->slug << ": " << diffs.size() << " crossover(s), "
            << "tolerance " << FormatDouble(tolerance_x, 4) << " ("
            << settings.tol_steps << " grid steps)\n";
  for (const CrossoverDiff& diff : diffs) {
    if (!diff.agree) ++disagreements;
    std::cerr << "  " << (diff.agree ? "ok      " : "DISAGREE") << "  "
              << diff.curve << "/" << diff.label << ": dense "
              << RenderValue(diff.dense) << ", adaptive "
              << RenderValue(diff.adaptive) << "\n";
  }
  std::cerr << "  points: adaptive " << FormatDouble(spent, 0) << " of "
            << dense_points << " dense";
  if (dense_points > 0) {
    std::cerr << " ("
              << FormatDouble(100.0 * spent / dense_points, 1) << "%)";
  }
  std::cerr << "\n";
  if (json) std::cout << report::BenchJson(adaptive);
  return disagreements == 0 ? 0 : 4;
}

/// The registry's Fig. 7-9 sweep configs at full ratio resolution but
/// quick domains — the grid the <= 1/5 budget claim is stated on.
struct BudgetFamily {
  std::vector<suite::CurveKey> curves;
  suite::AluFetchConfig config;
};

std::optional<BudgetFamily> FamilyFor(const std::string& slug) {
  const std::string key = suite::figures::NormalizeSlug(slug);
  BudgetFamily family;
  family.config.domain = Domain{256, 256};
  if (key == suite::figures::NormalizeSlug("fig_7")) {
    family.curves = suite::PaperCurves();
    return family;
  }
  if (key == suite::figures::NormalizeSlug("fig_8")) {
    family.curves = suite::PaperCurves(/*include_pixel=*/false);
    family.config.block = BlockShape{4, 16};
    return family;
  }
  if (key == suite::figures::NormalizeSlug("fig_9")) {
    family.curves = suite::PaperCurves(/*include_pixel=*/true,
                                       /*include_compute=*/false);
    family.config.read_path = ReadPath::kGlobal;
    family.config.write_path = WritePath::kStream;
    return family;
  }
  return std::nullopt;
}

int RunBudget(const std::string& slug, double max_ratio,
              adapt::Settings settings) {
  const std::optional<BudgetFamily> family = FamilyFor(slug);
  if (!family.has_value()) {
    std::cerr << "error: budget verb covers fig_7, fig_8, fig_9; got "
              << slug << "\n";
    return 2;
  }
  std::size_t dense_total = 0;
  std::size_t adaptive_total = 0;
  std::size_t disagreements = 0;
  for (const suite::CurveKey& key : family->curves) {
    const suite::Runner runner(key.arch);
    const suite::AluFetchResult dense =
        suite::RunAluFetch(runner, key.mode, key.type, family->config);
    suite::AluFetchConfig adaptive_config = family->config;
    adaptive_config.exec.adaptive = &settings;
    const suite::AluFetchResult adaptive =
        suite::RunAluFetch(runner, key.mode, key.type, adaptive_config);
    dense_total += dense.points.size();
    adaptive_total += adaptive.adaptive->points_spent;
    const double tolerance =
        settings.tol_steps * family->config.ratio_step + 1e-9;
    const bool agree =
        dense.crossover.has_value() == adaptive.crossover.has_value() &&
        (!dense.crossover.has_value() ||
         std::abs(*dense.crossover - *adaptive.crossover) <= tolerance);
    if (!agree) ++disagreements;
    std::cerr << "  " << (agree ? "ok      " : "DISAGREE") << "  "
              << key.Name() << ": dense " << RenderValue(dense.crossover)
              << " (" << dense.points.size() << " pts), adaptive "
              << RenderValue(adaptive.crossover) << " ("
              << adaptive.adaptive->points_spent << " pts)\n";
  }
  const double ratio =
      dense_total > 0
          ? static_cast<double>(adaptive_total) / dense_total
          : 0.0;
  std::cerr << slug << ": adaptive " << adaptive_total << " of "
            << dense_total << " dense points ("
            << FormatDouble(100.0 * ratio, 1) << "%), limit "
            << FormatDouble(100.0 * max_ratio, 1) << "%\n";
  if (disagreements > 0) return 4;
  return ratio <= max_ratio ? 0 : 5;
}

int RunFrontier(bool dense, bool quick, std::uint64_t budget, bool json) {
  adapt::FrontierConfig config;
  config.dense = dense;
  config.budget = budget;
  if (quick) {
    config.nx = 5;
    config.ny = 4;
    config.domain = Domain{128, 128};
    config.repetitions = 50;
  }
  const report::Figure figure = adapt::BuildFrontierFigure(config);
  if (json) std::cout << report::BenchJson(figure);
  report::WriteConfiguredSinks(figure, json ? nullptr : &std::cout,
                               std::cerr);
  return 0;
}

int RunList() {
  for (const suite::figures::FigureDef& def :
       suite::figures::Registry()) {
    std::cout << def.slug << "  " << def.what << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string verb;
    std::string slug;
    bool quick = false;
    bool json = false;
    bool dense = false;
    double max_ratio = 0.2;
    adapt::Settings settings = adapt::Settings::FromEnv();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--version") {
        std::cout << "amdmb_adapt " << SuiteVersion() << "\n";
        return 0;
      } else if (arg == "--list") {
        return RunList();
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--dense") {
        dense = true;
      } else if (arg == "--tol" && i + 1 < argc) {
        settings.tol_steps = env::ParseAdaptTol(argv[++i]);
      } else if (arg == "--budget" && i + 1 < argc) {
        settings.budget = env::ParseAdaptBudget(argv[++i]);
      } else if (arg == "--max-ratio" && i + 1 < argc) {
        try {
          max_ratio = std::stod(argv[++i]);
        } catch (const std::exception&) {
          throw ConfigError(std::string("--max-ratio: not a number: ") +
                            argv[i]);
        }
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage(argv[0]);
      } else if (verb.empty()) {
        verb = arg;
      } else if (slug.empty()) {
        slug = arg;
      } else {
        return Usage(argv[0]);
      }
    }
    if (verb == "figure" && !slug.empty()) {
      return RunFigure(slug, quick, settings, json);
    }
    if (verb == "budget" && !slug.empty()) {
      return RunBudget(slug, max_ratio, settings);
    }
    if (verb == "frontier" && slug.empty()) {
      return RunFrontier(dense, quick, settings.budget, json);
    }
    return Usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "amdmb_adapt: " << e.what() << "\n";
    return 1;
  }
}
