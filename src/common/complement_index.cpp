#include "common/complement_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace sos::common {

void radix_sort(std::vector<int>& values, int bound,
                std::vector<int>& scratch) {
  constexpr int kMaxDigitBits = 11;
  if (values.size() < 2 || bound <= 1) return;
  const int bits = std::bit_width(static_cast<unsigned>(bound - 1));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const unsigned mask = (1u << digit_bits) - 1;
  std::array<std::uint32_t, std::size_t{1} << kMaxDigitBits> counts{};
  scratch.resize(values.size());
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    const auto digit = [&](int value) {
      return (static_cast<unsigned>(value) >> shift) & mask;
    };
    std::fill_n(counts.begin(), mask + 1, 0u);
    for (const int value : values) ++counts[digit(value)];
    std::uint32_t offset = 0;
    for (unsigned d = 0; d <= mask; ++d)
      offset += std::exchange(counts[d], offset);
    for (const int value : values) scratch[counts[digit(value)]++] = value;
    values.swap(scratch);
  }
}

void ComplementIndex::build(int population, std::span<const int> excluded) {
  assert(std::all_of(excluded.begin(), excluded.end(), [&](int id) {
    return id >= 0 && id < population;
  }));
  rank_.assign(excluded.begin(), excluded.end());
  radix_sort(rank_, population, scratch_);
  // Dedupe and rank in one branch-free sweep: every id is written to the
  // next free slot, which only a new id claims (duplicates are adjacent now,
  // and a repeat's write is overwritten by the next new id or cut below).
  int count = 0;
  int previous = -1;
  for (const int id : rank_) {
    rank_[static_cast<std::size_t>(count)] = id - count;
    count += id != previous ? 1 : 0;
    previous = id;
  }
  rank_.resize(static_cast<std::size_t>(count));
  size_ = population - count;
  rank_.push_back(std::numeric_limits<int>::max());

  // Buckets of 2^shift_ positions, the widest power of two that still gives
  // every rank entry at least two buckets: a bucket then holds under half an
  // entry on average, so most lookups skip the descent's loop entirely.
  const std::int64_t entries = std::max(count, 1);
  shift_ = 0;
  while ((entries << (shift_ + 2)) <= size_) ++shift_;
  // Ranks lie in [0, size_], so (size_ >> shift_) + 1 buckets hold them all;
  // start_[b] counts the entries of buckets before b.
  const auto buckets = static_cast<std::size_t>(size_ >> shift_) + 1;
  start_.assign(buckets + 1, 0);
  for (int j = 0; j < count; ++j)
    ++start_[static_cast<std::size_t>(rank_[static_cast<std::size_t>(j)] >>
                                      shift_) +
             1];
  for (std::size_t b = 1; b <= buckets; ++b) start_[b] += start_[b - 1];
}

}  // namespace sos::common
