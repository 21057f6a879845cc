// Numeric helpers for the average-case SOS analysis.
//
// The paper's equations manipulate *fractional* set sizes (expected numbers of
// nodes), so every combinatorial quantity needs a continuous extension that is
// exact at the integer points. Everything here is pure and header-declared so
// the analytical models stay dependency-free.
#pragma once

#include <vector>

namespace sos::common {

/// log(n!) = lgamma(n + 1), served from a process-wide memo table that is
/// grown lazily and published as immutable snapshots, so concurrent readers
/// never block (and never see a partially built table). Values are exactly
/// the std::lgamma results, only cached. Above an internal size cap the call
/// falls through to std::lgamma directly.
double log_factorial(int n);

/// Natural log of the binomial coefficient C(n, k) via lgamma.
/// Requires 0 <= k <= n (doubles; continuous extension for non-integers).
/// Integer arguments are served from the shared log-factorial table.
double log_binomial(double n, double k);

/// C(n, k) computed in the log domain; returns 0 for k < 0 or k > n.
double binomial(double n, double k);

/// The paper's P(x, y, z): probability that a uniformly chosen z-subset of x
/// nodes falls entirely inside a given y-subset, i.e. C(y,z)/C(x,z) when
/// y >= z and 0 otherwise.
///
/// y may be fractional (an expected count); the continuous extension used is
///   prod_{t=0}^{z-1} (y - t) / (x - t)
/// which equals C(y,z)/C(x,z) at integer y and degrades smoothly in between.
/// z must be a non-negative integer with z <= x. Result is clamped to [0, 1].
double prob_all_in_subset(double x, double y, int z);

/// Exact hypergeometric pmf: P[K = k] where K counts marked items in a
/// uniform draw of `draws` from a population with `marked` marked items.
double hypergeometric_pmf(int population, int marked, int draws, int k);

/// Incremental evaluator of prob_all_in_subset(x, y, z) over the integer
/// grid y = 0, 1, 2, ...: the inner loop of the exact congestion DP asks for
/// every congested count c in [0, n_i], and the ratio
///   P(x, y+1, z) / P(x, y, z) = (y + 1) / (y + 1 - z)
/// turns that sweep from O(n * z) products into O(n) multiplies. Values are
/// mathematically identical to prob_all_in_subset at every integer y (the
/// running product differs only in rounding, a few ulp).
class SubsetProbSweep {
 public:
  /// Requires z >= 0 and z <= x; starts positioned at y = 0.
  SubsetProbSweep(double x, int z);

  /// P(x, y, z) for the current y, clamped to [0, 1].
  double value() const;

  /// Moves y -> y + 1.
  void advance();

 private:
  double x_;
  int z_;
  int y_ = 0;
  double prob_;
};

/// (1 - p)^n for fractional n, numerically stable for tiny p via expm1/log1p.
double pow_one_minus(double p, double n);

/// Clamp helpers used throughout the models.
double clamp01(double v);
double clamp_non_negative(double v);
double clamp_to(double v, double lo, double hi);

/// Largest-remainder (Hamilton) apportionment: distributes `total` integer
/// units proportionally to non-negative `weights`. The result sums exactly to
/// `total`; ties broken by larger weight then lower index. Every entry with a
/// positive weight receives at least one unit when total >= #positive-weights
/// and `at_least_one` is set.
std::vector<int> apportion(int total, const std::vector<double>& weights,
                           bool at_least_one);

}  // namespace sos::common
