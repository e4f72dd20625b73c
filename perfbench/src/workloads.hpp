// The benchmark's three workloads. Each is built so that one layer of
// the program dominates it and another barely runs (see README.md for
// the prediction each one carries).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "metrics.hpp"
#include "report/record.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path reference_dir = "perfbench/reference";
  std::filesystem::path serve_binary;  ///< amdmb_serve, for serve_open.
  std::filesystem::path scratch_dir = ".bench_build/perfbench-run";
  /// serve_open arrival rate override (work requests per second); 0
  /// keeps the committed rate. Used to re-measure capacity.
  double rate = 0.0;
};

/// Runs the workload's set-up only: everything up to the point where the
/// first timed operation could start. Returns once ready; `ready` is
/// called at that point (the set-up probe reports it to its parent).
void SetupOnly(const Options& options, const std::function<void()>& ready);

RunResult RunFiguresQuick(const Options& options);
RunResult RunKerncapAlu(const Options& options);
RunResult RunServeOpen(const Options& options);

/// Per-workload set-up, for SetupOnly.
void SetupFigures(const Options& options);
void SetupKerncap(const Options& options);
/// Stops the daemon it started after calling `ready`.
void SetupServe(const Options& options, const std::function<void()>& ready);

/// Sweep points in a finished figure record.
std::size_t CountPoints(const amdmb::report::Figure& figure);

/// Writes the traced run's spans into the scratch directory: a Chrome
/// trace and a per-name summary (count, total and self milliseconds).
void WriteTrace(const Options& options, const SpanRecorder& spans);

/// Regenerates the reference digest tables from the current build.
void WriteReference(const std::filesystem::path& dir);

}  // namespace perfbench
