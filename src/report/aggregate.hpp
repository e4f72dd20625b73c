// Cross-figure aggregation: figure documents (a directory of
// BENCH_*.json files, or records serialized with BenchJson in memory) →
// one suite-wide markdown summary plus paper-expectation checks.
// This is the top of the measurement → record → sink pipeline: it only
// consumes typed LoadedFigure records (report/load.hpp), never raw
// bench stdout.
#pragma once

#include <string>
#include <vector>

#include "report/expectations.hpp"
#include "report/load.hpp"

namespace amdmb::report {

/// Renders the merged suite summary as markdown: run metadata, one
/// section per figure (paper claim, per-curve statistics, findings,
/// degradations), and the expectation-check table with a pass/fail
/// tally. Mirrors the hand-written EXPERIMENTS.md layout.
std::string SuiteSummaryMarkdown(const std::vector<LoadedFigure>& figures,
                                 const std::vector<ExpectationResult>& checks);

}  // namespace amdmb::report
