#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strings.h"

namespace sos::common {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
  if (bins < 1) throw std::invalid_argument("Histogram: need >= 1 bin");
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::add(double value) {
  const double span = hi_ - lo_;
  int index = static_cast<int>(
      std::floor((value - lo_) / span * bin_count()));
  index = std::clamp(index, 0, bin_count() - 1);
  ++counts_[static_cast<std::size_t>(index)];
  ++count_;
}

double Histogram::bin_lower(int index) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(index) / bin_count();
}

std::string Histogram::render(int max_bar_width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (int index = 0; index < bin_count(); ++index) {
    const auto c = counts_[static_cast<std::size_t>(index)];
    const int width = static_cast<int>(
        std::llround(static_cast<double>(c) / static_cast<double>(peak) *
                     max_bar_width));
    out += '[';
    out += pad_left(format_double(bin_lower(index), 1), 7) + ", " +
           pad_left(format_double(bin_upper(index), 1), 7) + ") ";
    out += std::string(static_cast<std::size_t>(width), '#');
    out += ' ';
    out += std::to_string(c) + "\n";
  }
  return out;
}

}  // namespace sos::common
