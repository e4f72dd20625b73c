// Metric collection and the benchmark's output lines.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run produced.
struct RunResult {
  std::size_t attempted = 0;  ///< Operations attempted (incl. checks).
  std::size_t failed = 0;     ///< Failed, refused, or mismatched.
  /// The metrics of this mode: end-to-end ones when untraced, per-layer
  /// ones when traced. Printed in the final JSON line, in this order.
  std::vector<Metric> metrics;
  /// Workload-specific numbers printed by name and unit on the human
  /// lines only (every workload reports the same `metrics` set).
  std::vector<Metric> extra;
  std::string first_failure;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void AddExtra(std::string name, std::string unit, double value) {
    extra.push_back({std::move(name), std::move(unit), value});
  }
  bool Correct() const { return failed == 0 && attempted > 0; }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(const RunResult& result);

/// One "name value unit" line per metric, for people.
std::string HumanLines(const std::vector<Metric>& metrics);

/// The p-th percentile (0..100) through common/stats.
double Quantile(const std::vector<double>& samples, double p);

/// Peak resident set of this process, MiB.
double SelfPeakRssMb();

/// Peak resident set (VmHWM) of a live child process, MiB; 0 when it
/// cannot be read.
double ProcessPeakRssMb(int pid);

/// Seconds between two steady-clock points.
template <typename TimePoint>
double Seconds(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace perfbench
