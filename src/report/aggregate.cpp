#include "report/aggregate.hpp"

#include <sstream>

#include "common/table.hpp"

namespace amdmb::report {
namespace {

void EmitRunMeta(std::ostringstream& out,
                 const std::vector<LoadedFigure>& figures) {
  const LoadedFigure* v2 = nullptr;
  for (const LoadedFigure& figure : figures) {
    if (figure.schema_version >= 2) {
      v2 = &figure;
      break;
    }
  }
  if (v2 == nullptr) return;
  const RunMeta& m = v2->meta;
  out << "Run: suite " << (m.suite_version.empty() ? "unknown"
                                                   : m.suite_version)
      << ", " << m.threads << " sweep thread" << (m.threads == 1 ? "" : "s")
      << ", " << (m.quick ? "quick" : "full") << " domains";
  if (!m.faults.empty()) out << ", faults `" << m.faults << "`";
  if (!m.retry.empty()) out << ", retry `" << m.retry << "`";
  if (m.watchdog_cycles != 0) {
    out << ", watchdog " << m.watchdog_cycles << " cycles";
  }
  out << ".\n\n";
}

void EmitFigure(std::ostringstream& out, const LoadedFigure& figure) {
  out << "## " << figure.id;
  if (!figure.source.empty()) {
    out << " (`" << figure.source.filename().string() << "`)";
  }
  out << "\n\n";
  if (!figure.paper_claim.empty()) {
    out << "Paper claim: " << figure.paper_claim << "\n\n";
  }
  if (!figure.curves.empty()) {
    out << "| Curve | Points | Median (s) | Min (s) | Max (s) |\n"
        << "|---|---|---|---|---|\n";
    for (const LoadedCurve& curve : figure.curves) {
      out << "| " << curve.name << " | " << curve.points.size() << " | "
          << FormatDouble(curve.median, 3) << " | "
          << FormatDouble(curve.min, 3) << " | "
          << FormatDouble(curve.max, 3) << " |\n";
    }
    out << "\n";
  }
  if (!figure.findings.empty()) {
    out << "Measured:\n";
    for (const Finding& finding : figure.findings) {
      out << "- " << finding.Render() << "\n";
    }
    out << "\n";
  } else if (!figure.notes.empty()) {
    // v1 documents carry free-text notes only.
    out << "Notes:\n";
    for (const std::string& note : figure.notes) {
      out << "- " << note << "\n";
    }
    out << "\n";
  }
  if (!figure.degradations.empty()) {
    out << "Fault annotations (degraded sweep points):\n";
    for (const Degradation& d : figure.degradations) {
      out << "- " << d.Render() << "\n";
    }
    out << "\n";
  }
}

std::string RenderExpected(const Expectation& e) {
  if (e.expect_censored) return "censored (beyond sweep)";
  std::ostringstream os;
  os << (e.min ? FormatDouble(*e.min, 3) : std::string("-inf")) << " .. "
     << (e.max ? FormatDouble(*e.max, 3) : std::string("+inf"));
  return os.str();
}

void EmitChecks(std::ostringstream& out,
                const std::vector<ExpectationResult>& checks) {
  out << "## Paper-expectation checks\n\n";
  if (checks.empty()) {
    out << "No expectations apply to the loaded figures.\n";
    return;
  }
  out << "| Figure | Curve | Finding | Expected | Status | Detail |\n"
      << "|---|---|---|---|---|---|\n";
  unsigned pass = 0, fail = 0, missing = 0;
  for (const ExpectationResult& check : checks) {
    const Expectation& e = check.expectation;
    out << "| " << e.figure_slug << " | " << e.curve_substr << " | "
        << e.label << " | " << RenderExpected(e) << " | "
        << ToString(check.status) << " | " << check.detail << " |\n";
    switch (check.status) {
      case ExpectationStatus::kPass: ++pass; break;
      case ExpectationStatus::kFail: ++fail; break;
      case ExpectationStatus::kMissing: ++missing; break;
    }
  }
  out << "\n" << pass << " pass, " << fail << " fail, " << missing
      << " missing (of " << checks.size() << " applicable checks).\n";
}

}  // namespace

std::string SuiteSummaryMarkdown(
    const std::vector<LoadedFigure>& figures,
    const std::vector<ExpectationResult>& checks) {
  std::ostringstream out;
  out << "# AMD micro-benchmark suite — merged results\n\n"
      << "Aggregated from " << figures.size() << " figure document"
      << (figures.size() == 1 ? "" : "s") << ".\n\n";
  EmitRunMeta(out, figures);
  for (const LoadedFigure& figure : figures) {
    EmitFigure(out, figure);
  }
  EmitChecks(out, checks);
  return out.str();
}

}  // namespace amdmb::report
