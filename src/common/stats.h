// Streaming statistics and interval estimates for Monte Carlo results.
#pragma once

#include <cstdint>
#include <vector>

namespace sos::common {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  double std_error() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double v) const noexcept { return v >= lo && v <= hi; }
  double width() const noexcept { return hi - lo; }
};

/// Normal-approximation CI for a mean (z = 1.96 for 95%).
Interval mean_confidence_interval(const RunningStats& stats, double z = 1.96);

/// Wilson score interval for a Bernoulli proportion: robust near 0 and 1,
/// which is exactly where P_S lives under heavy attack.
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z = 1.96);

/// Quantile of sorted-copy semantics (q in [0,1], linear interpolation).
double quantile(std::vector<double> values, double q);

}  // namespace sos::common
