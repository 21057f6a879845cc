// Fixed-bin histogram for latency / hop-count distributions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sos::common {

class Histogram {
 public:
  /// `bins` uniform bins over [lo, hi); values outside are clamped into the
  /// first/last bin (so tails stay visible rather than silently dropped).
  Histogram(double lo, double hi, int bins);

  void add(double value);
  std::uint64_t count() const noexcept { return count_; }

  int bin_count() const noexcept { return static_cast<int>(counts_.size()); }
  std::uint64_t bin(int index) const {
    return counts_.at(static_cast<std::size_t>(index));
  }
  double bin_lower(int index) const;
  double bin_upper(int index) const { return bin_lower(index + 1); }

  /// Compact one-bar-per-bin ASCII rendering ("[lo, hi) ####### 42").
  std::string render(int max_bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace sos::common
