#include "common/mathx.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sos::common {

namespace {

/// Immutable snapshot of lgamma(i + 1) for i in [0, size). Growth publishes
/// a fresh copy through the atomic pointer; readers that loaded an older
/// snapshot keep using it, so superseded snapshots are deliberately retained
/// for the process lifetime (doubling growth bounds the total waste by the
/// final table size).
struct FactorialSnapshot {
  std::vector<double> values;
};

std::atomic<const FactorialSnapshot*> g_factorials{nullptr};
std::mutex g_factorials_mutex;

/// Owns every snapshot published so far, the current one included, so the
/// retained ones stay reachable rather than leaked. Never destroyed: a reader
/// still running at exit may hold any of them. Guarded by g_factorials_mutex.
std::vector<std::unique_ptr<const FactorialSnapshot>>& factorial_owners() {
  static auto* const owners =
      new std::vector<std::unique_ptr<const FactorialSnapshot>>;
  return *owners;
}

/// Past this many entries (8 MB) callers fall through to std::lgamma.
constexpr int kFactorialTableCap = 1 << 20;

const FactorialSnapshot* grow_factorials(int need) {
  std::lock_guard<std::mutex> lock(g_factorials_mutex);
  const FactorialSnapshot* current =
      g_factorials.load(std::memory_order_acquire);
  if (current != nullptr &&
      need < static_cast<int>(current->values.size()))
    return current;  // another thread grew past `need` first
  auto next = std::make_unique<FactorialSnapshot>();
  std::size_t size = current != nullptr ? current->values.size() : 256;
  while (size <= static_cast<std::size_t>(need)) size *= 2;
  size = std::min(size, static_cast<std::size_t>(kFactorialTableCap));
  next->values.reserve(size);
  if (current != nullptr) next->values = current->values;
  for (std::size_t i = next->values.size(); i < size; ++i)
    next->values.push_back(std::lgamma(static_cast<double>(i) + 1.0));
  const FactorialSnapshot* published = next.get();
  factorial_owners().push_back(std::move(next));
  g_factorials.store(published, std::memory_order_release);
  return published;
}

}  // namespace

double log_factorial(int n) {
  assert(n >= 0);
  if (n >= kFactorialTableCap) return std::lgamma(static_cast<double>(n) + 1.0);
  const FactorialSnapshot* snap =
      g_factorials.load(std::memory_order_acquire);
  if (snap == nullptr || n >= static_cast<int>(snap->values.size()))
    snap = grow_factorials(n);
  return snap->values[static_cast<std::size_t>(n)];
}

double log_binomial(double n, double k) {
  assert(k >= 0.0 && k <= n);
  if (n < static_cast<double>(kFactorialTableCap)) {
    const int ni = static_cast<int>(n);
    const int ki = static_cast<int>(k);
    if (static_cast<double>(ni) == n && static_cast<double>(ki) == k)
      return log_factorial(ni) - log_factorial(ki) - log_factorial(ni - ki);
  }
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

double binomial(double n, double k) {
  if (k < 0.0 || k > n) return 0.0;
  return std::exp(log_binomial(n, k));
}

double prob_all_in_subset(double x, double y, int z) {
  assert(z >= 0);
  assert(static_cast<double>(z) <= x + 1e-9);
  if (z == 0) return 1.0;
  if (y <= 0.0) return 0.0;
  if (y >= x) return 1.0;
  double prob = 1.0;
  for (int t = 0; t < z; ++t) {
    const double num = y - static_cast<double>(t);
    const double den = x - static_cast<double>(t);
    if (num <= 0.0) return 0.0;
    assert(den > 0.0);
    prob *= num / den;
  }
  return clamp01(prob);
}

SubsetProbSweep::SubsetProbSweep(double x, int z) : x_(x), z_(z) {
  assert(z >= 0);
  assert(static_cast<double>(z) <= x + 1e-9);
  prob_ = z == 0 ? 1.0 : 0.0;
}

double SubsetProbSweep::value() const { return clamp01(prob_); }

void SubsetProbSweep::advance() {
  ++y_;
  if (z_ == 0) return;                    // always 1
  if (y_ < z_) return;                    // still impossible: prob stays 0
  if (y_ == z_) {
    // Seed with the direct product; every later step is an O(1) ratio.
    prob_ = prob_all_in_subset(x_, static_cast<double>(y_), z_);
    return;
  }
  prob_ *= static_cast<double>(y_) / static_cast<double>(y_ - z_);
}

double hypergeometric_pmf(int population, int marked, int draws, int k) {
  assert(population >= 0 && marked >= 0 && draws >= 0);
  assert(marked <= population && draws <= population);
  if (k < 0 || k > marked || k > draws) return 0.0;
  if (draws - k > population - marked) return 0.0;
  const double log_p = log_binomial(marked, k) +
                       log_binomial(population - marked, draws - k) -
                       log_binomial(population, draws);
  return std::exp(log_p);
}

double pow_one_minus(double p, double n) {
  if (n <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  if (p <= 0.0) return 1.0;
  return std::exp(n * std::log1p(-p));
}

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

double clamp_non_negative(double v) { return std::max(0.0, v); }

double clamp_to(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

std::vector<int> apportion(int total, const std::vector<double>& weights,
                           bool at_least_one) {
  if (total < 0) throw std::invalid_argument("apportion: negative total");
  const std::size_t n = weights.size();
  std::vector<int> out(n, 0);
  if (n == 0 || total == 0) return out;

  double weight_sum = 0.0;
  std::size_t positive = 0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("apportion: negative weight");
    weight_sum += w;
    if (w > 0.0) ++positive;
  }
  if (weight_sum <= 0.0) throw std::invalid_argument("apportion: zero weights");

  int floor_base = 0;
  if (at_least_one && total >= static_cast<int>(positive)) {
    for (std::size_t i = 0; i < n; ++i)
      if (weights[i] > 0.0) out[i] = 1;
    floor_base = static_cast<int>(positive);
  }

  const int remaining = total - floor_base;
  std::vector<double> remainder(n, 0.0);
  int assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= 0.0) continue;
    const double share = remaining * weights[i] / weight_sum;
    const int whole = static_cast<int>(std::floor(share));
    out[i] += whole;
    assigned += whole;
    remainder[i] = share - whole;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (remainder[a] != remainder[b])
                       return remainder[a] > remainder[b];
                     return weights[a] > weights[b];
                   });
  for (std::size_t idx = 0; assigned < remaining; ++idx) {
    const std::size_t i = order[idx % n];
    if (weights[i] <= 0.0) continue;
    ++out[i];
    ++assigned;
  }
  return out;
}

}  // namespace sos::common
