// Small statistics helpers used by the measurement harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace amdmb {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);

  std::uint64_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  double Variance() const;  ///< Sample variance (n-1 denominator).
  double StdDev() const;
  double Min() const { return n_ ? min_ : 0.0; }
  double Max() const { return n_ ? max_ : 0.0; }
  double Sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Least-squares line fit over (x, y) samples; used by the latency
/// micro-benchmarks to report per-input / per-output slopes.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< Coefficient of determination.
};

LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

/// Ratio of two doubles that tolerates a zero denominator.
double SafeRatio(double num, double den);

/// The median of `samples`: the middle value, or the mean of the two
/// middle values for an even count; 0.0 for an empty sample set.
double Median(std::vector<double> samples);

/// The p-th percentile (p in [0, 100]) of `samples` by linear
/// interpolation between closest ranks; 0.0 for an empty sample set.
/// Used by the serve daemon's per-figure latency stats.
double Percentile(std::vector<double> samples, double p);

}  // namespace amdmb
