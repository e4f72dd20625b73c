#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"

namespace amdmb {

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::Variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::StdDev() const { return std::sqrt(Variance()); }

LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  Check(xs.size() == ys.size(), "FitLine: mismatched sample vectors");
  LineFit fit;
  const auto n = static_cast<double>(xs.size());
  if (xs.size() < 2) return fit;

  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double SafeRatio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Percentile(std::vector<double> samples, double p) {
  Check(p >= 0.0 && p <= 100.0, "Percentile: p outside [0, 100]");
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      (p / 100.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace amdmb
