// The one bench main every figure-reproduction binary runs.
//
// Each bench binary reproduces one table or figure of the paper, named by
// its slug in the suite registry or its supplementary list
// (suite/figures.hpp). google-benchmark times the *simulator* cost of each
// curve (one iteration per curve — the interesting output is the figure
// data, not wall time), and after the benchmark pass the binary finalizes
// one report::Figure record per figure (curves + typed findings + typed
// degradations + run meta) and writes it through the configured sinks
// (report::WriteConfiguredSinks): the text sink always (the
// "x  y1  y2 ..." column layout the paper's plots were drawn from plus a
// "Measured:" findings block), gnuplot / JSON / CSV sinks when their
// output directories are set.
//
// Environment (parsed once by common/env.hpp):
//   AMDMB_QUICK=1        shrink domains/sweeps for smoke runs.
//   AMDMB_THREADS=N      sweep-executor width (default: hardware
//                        concurrency); results are identical at any N.
//   AMDMB_DUMP_DIR=dir   write gnuplot .dat/.gp per figure.
//   AMDMB_JSON_DIR=dir   write machine-readable BENCH_<figure>.json
//                        plus <figure>.csv per figure.
//   AMDMB_FAULTS=spec    deterministic fault injection (see README);
//                        degraded points surface as typed
//                        "degradations" JSON entries and "Fault
//                        annotations" report lines.
//   AMDMB_ADAPT=1        refine the paper figures' curves adaptively;
//                        supplementary figures always sweep densely.
//
// Both output directories are validated up front (created if missing,
// probed for writability) so a bad path fails with a clear message
// before any sweep runs instead of silently dropping results.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/env.hpp"
#include "common/interrupt.hpp"
#include "common/status.hpp"
#include "exec/sweep_executor.hpp"
#include "report/sink.hpp"
#include "suite/figures.hpp"

namespace amdmb::bench {

/// Runs the figures named by `slugs`: registers one google-benchmark per
/// curve — names "<bench_prefix>/<curve>" — then writes every figure
/// through the configured sinks. Returns 1 with a descriptive stderr
/// message when a knob is malformed, an output directory is unusable, or
/// a slug is unknown — before any sweep runs, so hours of work are never
/// silently dropped. SIGINT/SIGTERM cut the run short between sweep
/// points (the sweeps take the interrupt token) and between curves, then
/// flush a partial report with an "interrupted" finding and return 130.
inline int RunBenchMain(int argc, char** argv,
                        const std::vector<std::string>& slugs) {
  namespace figures = suite::figures;
  struct Entry {
    const figures::FigureDef* def;
    figures::RunOptions opts;
    report::Figure figure;
  };
  // The token the SIGINT/SIGTERM handler fires; sweeps skip their
  // remaining points once it is set.
  static exec::CancelToken interrupt_token;
  std::vector<Entry> entries;
  try {
    const env::Options& options = env::Get();
    if (options.dump_dir) {
      report::EnsureWritableDirectory(*options.dump_dir, "AMDMB_DUMP_DIR");
    }
    if (options.json_dir) {
      report::EnsureWritableDirectory(*options.json_dir, "AMDMB_JSON_DIR");
    }
    if (options.trace_dir) {
      report::EnsureWritableDirectory(*options.trace_dir, "AMDMB_TRACE_DIR");
    }
    static const adapt::Settings adaptive_settings =
        adapt::Settings::FromEnv();
    figures::RunOptions opts;
    opts.quick = options.quick;
    opts.cancel = &interrupt_token;
    if (options.adapt) opts.adaptive = &adaptive_settings;
    for (const std::string& slug : slugs) {
      const figures::FigureDef* def = figures::Find(slug);
      figures::RunOptions figure_opts = opts;
      if (def == nullptr) {
        def = figures::Find(slug, figures::Supplementary());
        figure_opts.adaptive = nullptr;
      }
      if (def == nullptr) {
        std::cerr << "error: unknown figure slug: " << slug << "\n";
        return 1;
      }
      entries.push_back({def, figure_opts, figures::NewRecord(*def)});
    }
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  for (Entry& entry : entries) {
    for (const figures::CurveDef& curve : entry.def->curves) {
      ::benchmark::RegisterBenchmark(
          (entry.def->bench_prefix + "/" + curve.name).c_str(),
          [&entry, &curve](::benchmark::State& state) {
            double sim_seconds = 0.0;
            for (auto _ : state) {
              if (!InterruptRequested()) {
                sim_seconds = curve.run(entry.figure, entry.opts);
              }
              ::benchmark::DoNotOptimize(sim_seconds);
            }
            state.counters["sim_seconds"] = sim_seconds;
          })
          ->Iterations(1)
          ->Unit(::benchmark::kMillisecond);
    }
  }
  InstallInterruptHandlers();
  NotifyFlagOnInterrupt(&interrupt_token.FlagForSignal());
  ::benchmark::Initialize(&argc, &argv[0]);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  try {
    if (InterruptRequested()) {
      const int signal_number = InterruptSignal();
      for (Entry& entry : entries) {
        entry.figure.findings.push_back(
            {report::FindingKind::kEvent, "", "interrupted",
             static_cast<double>(signal_number), "signal",
             std::string(DescribeSignal(signal_number)) +
                 " received — partial report, remaining sweep points "
                 "skipped"});
      }
      std::cerr << "interrupted (" << DescribeSignal(signal_number)
                << "), flushing partial report\n";
    }
    for (Entry& entry : entries) {
      figures::FinalizeRecord(entry.figure, entry.opts);
      report::WriteConfiguredSinks(entry.figure, &std::cout, std::cout);
      std::cout.flush();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: writing figure outputs failed: " << e.what()
              << "\n";
    return 1;
  }
  return InterruptRequested() ? 130 : 0;
}

}  // namespace amdmb::bench
