// Builds every figure of the suite in memory — the paper's registry
// figures plus the supplementary ones (Table I, the block-size explorer,
// the ablations) — and prints the merged markdown summary with the
// paper-expectation checks. Each record goes through the BENCH_*.json
// document a bench binary would write and is read back from it, so this
// summary is the one amdmb_report renders from those documents.
//
// Run:  AMDMB_QUICK=1 ./example_suite_report   (unset: paper scale)
#include <iostream>
#include <vector>

#include "amdmb.hpp"
#include "common/env.hpp"
#include "exec/sweep_executor.hpp"
#include "report/aggregate.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"

int main(int argc, char** argv) {
  using namespace amdmb;
  namespace figures = suite::figures;
  if (argc > 1) {
    std::cerr << "usage: " << argv[0]
              << "  (AMDMB_QUICK=1 for smoke-scale domains)\n";
    return 2;
  }
  try {
    std::vector<const figures::FigureDef*> defs;
    for (const auto* list : {&figures::Registry(), &figures::Supplementary()}) {
      for (const figures::FigureDef& def : *list) defs.push_back(&def);
    }
    figures::RunOptions opts;
    opts.quick = env::Get().quick;
    // Figures fan out across the worker pool; each figure's own sweeps
    // run inline on its worker, so the output is identical at any
    // AMDMB_THREADS.
    const std::vector<report::LoadedFigure> loaded =
        exec::SweepExecutor::Default().Map(defs.size(), [&](std::size_t i) {
          return report::LoadFigureJson(
              report::BenchJson(figures::Build(*defs[i], opts)));
        });
    std::cout << report::SuiteSummaryMarkdown(
        loaded, report::CheckExpectations(loaded));
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
