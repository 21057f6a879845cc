#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sos::common {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::std_error() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

Interval mean_confidence_interval(const RunningStats& stats, double z) {
  const double half = z * stats.std_error();
  return Interval{stats.mean() - half, stats.mean() + half};
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) {
  if (trials == 0) return Interval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return Interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

double quantile(std::vector<double> values, double q) {
  assert(!values.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace sos::common
