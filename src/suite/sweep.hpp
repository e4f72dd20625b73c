// The one sweep path every micro-benchmark runs through.
//
// Each figure family sweeps one kernel parameter, measures every point,
// and reads off where the bottleneck flips. Sweep owns that loop: it
// runs the points densely (exec::SweepExecutor::MapWithPolicy) or, when
// ExecOptions::adaptive is set, refines them (adapt::Refiner), labels
// the RunReport, and hands back the successful points in grid order.
// The family runners only say what a point is (x, label, measurement).
//
// Determinism: both paths place every point's result in its own grid
// slot, so `points` is grid-ordered at any executor width. The
// RunReport is grid-ordered when dense and wave-ordered when adaptive,
// exactly as MapWithPolicy and Refiner produce it.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adapt/refiner.hpp"
#include "exec/run_report.hpp"
#include "exec/sweep_executor.hpp"
#include "sim/gpu.hpp"

namespace amdmb::suite {

/// How a dense sweep's points execute. block_size embeds this alone:
/// it has no adaptive mode.
struct DenseExecOptions {
  /// Force hardware-counter profiling for every point (tests use this
  /// to bypass the cached AMDMB_PROF snapshot).
  bool profile = false;
  /// Points run through this executor (null = the process default,
  /// AMDMB_THREADS workers). Results are bit-identical at any width.
  const exec::SweepExecutor* executor = nullptr;
  /// Per-point retry/skip behaviour under faults (AMDMB_RETRY default).
  exec::RetryPolicy retry = exec::RetryPolicy::FromEnv();
  /// Optional cooperative cancellation: points not yet started when the
  /// token fires are skipped (the bench binaries wire their SIGINT/
  /// SIGTERM flag here so an interrupted run still flushes a partial
  /// figure).
  const exec::CancelToken* cancel = nullptr;
};

/// How a sweep executes. Every other sweep config embeds one
/// (`config.exec`); the figure registry's RunOptions is ExecOptions
/// plus its quick flag.
struct ExecOptions : DenseExecOptions {
  /// Non-null switches the sweep to adaptive refinement: only the
  /// coarse pass plus bisection points around bottleneck flips are
  /// measured. Dense output is unchanged when null.
  const adapt::Settings* adaptive = nullptr;
};

/// What one sweep produced.
template <typename Point>
struct SweepResult {
  std::vector<Point> points;  ///< Successful points only, grid order.
  /// Per-point outcome (ok / retried / skipped), labelled by label_of.
  exec::RunReport report;
  /// Refinement record; present only when the sweep ran adaptively.
  std::optional<adapt::Outcome> adaptive;
};

namespace detail {

/// The type-erased core of Sweep: `classify(i, attempt)` measures grid
/// index i and returns its bottleneck label. Fills `report` and returns
/// the refinement record when the sweep ran adaptively.
std::optional<adapt::Outcome> RunSweep(
    std::size_t count, const adapt::Refiner::XOfFn& x_of,
    const std::function<std::string(std::size_t)>& label_of,
    const adapt::Refiner::MeasureFn& classify, const ExecOptions& options,
    exec::RunReport* report);

}  // namespace detail

/// Sweeps grid indices 0 .. count-1. `measure(i, attempt)` returns the
/// point (any type with a `Measurement m` member); the point's
/// bottleneck is the label adaptive refinement bisects on. `x_of(i)` is
/// the x coordinate refinement reports transitions at, and `label_of(i)`
/// names the point in the RunReport. Throws exec::SweepError when a
/// point fails under a fail-fast retry policy.
template <typename XOf, typename LabelOf, typename Measure>
auto Sweep(std::size_t count, const XOf& x_of, const LabelOf& label_of,
           const Measure& measure, const ExecOptions& options) {
  using Point = std::invoke_result_t<const Measure&, std::size_t, unsigned>;
  // Points touch distinct slots, so concurrent writes never race.
  std::vector<std::optional<Point>> slots(count);
  SweepResult<Point> result;
  result.adaptive = detail::RunSweep(
      count, x_of, label_of,
      [&](std::size_t i, unsigned attempt) {
        const Point& point = slots[i].emplace(measure(i, attempt));
        return std::string(sim::ToString(point.m.stats.bottleneck));
      },
      options, &result.report);
  for (std::optional<Point>& slot : slots) {
    if (slot) result.points.push_back(std::move(*slot));
  }
  return result;
}

}  // namespace amdmb::suite
