// The complement of an exclusion set, indexed by position.
//
// Spill-over congestion (Eq. 8) and the conditioned break-in phase both draw
// uniform positions in a pool that is [0, N) minus a small exclusion set
// (disclosed and already-hit nodes; the secret servlets), and map each
// position to its node id. ComplementIndex does that mapping in constant
// time per position for scattered exclusions (logarithmic in one bucket's
// entries at worst) after an O(T) build from T excluded ids:
//
//   - the ids are sorted by an LSD radix sort (digits of at most 11 bits, so
//     the count array stays in L1 for any id range) and deduplicated;
//   - the sorted list excl[] becomes its rank table excl[j] - j, the number
//     of pool ids below excl[j], so the position-th pool id is
//     position + #{j : rank[j] <= position};
//   - a bucket index splits the positions into power-of-two buckets, two to
//     four per rank entry (single positions where exclusions are dense), and
//     records where each bucket's entries start, so a lookup counts only the
//     entries inside its own bucket (usually none or one).
//
// No step costs O(N): N sets only the radix pass count (its bit width) and T
// the bucket count, so one index serves an overlay of 200 nodes and one of
// 10^7 alike.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace sos::common {

/// Sorts `values` ascending; every value must lie in [0, bound). An LSD radix
/// sort in ceil(bits / 11) passes of equal-width digits (bits = the width of
/// bound - 1), ping-ponging through `scratch`: the two vectors may trade
/// buffers. O(values.size() + 2^11) per pass.
void radix_sort(std::vector<int>& values, int bound, std::vector<int>& scratch);

class ComplementIndex {
 public:
  /// Indexes [0, population) minus `excluded`: ids in [0, population), in
  /// any order, duplicates allowed. Reuses the index's buffers, so a
  /// steady-state rebuild does not allocate.
  void build(int population, std::span<const int> excluded);

  /// Number of ids that are not excluded.
  int size() const noexcept { return size_; }

  /// Bytes held by the rank table, sort buffer and bucket index.
  std::size_t footprint_bytes() const noexcept {
    return (rank_.capacity() + scratch_.capacity()) * sizeof(int) +
           start_.capacity() * sizeof(std::uint32_t);
  }

  /// The position-th id (0-based, ascending) that is not excluded. Requires
  /// 0 <= position < size(). The entries of the position's bucket are
  /// counted by a branch-free descent, so even a bucket that holds a long
  /// run of excluded ids costs a logarithmic number of steps.
  int node_at(int position) const noexcept {
    assert(position >= 0 && position < size_);
    const auto bucket = static_cast<std::size_t>(position >> shift_);
    const int* base = rank_.data() + start_[bucket];
    std::uint32_t len = start_[bucket + 1] - start_[bucket];
    while (len > 1) {
      const std::uint32_t half = len / 2;
      base = base[half] <= position ? base + half : base;
      len -= half;
    }
    // rank_ ends in a sentinel above every position, so *base is readable
    // (and not counted) when the bucket is empty.
    return position + static_cast<int>(base - rank_.data()) +
           (*base <= position ? 1 : 0);
  }

 private:
  std::vector<int> rank_;             // excl[j] - j, non-decreasing; sentinel
  std::vector<int> scratch_;          // radix sort ping-pong buffer
  std::vector<std::uint32_t> start_;  // per bucket: entries in earlier ones
  int shift_ = 0;                     // bucket b holds positions b << shift_..
  int size_ = 0;
};

}  // namespace sos::common
