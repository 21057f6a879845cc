// What the attacker knows, node by node.
//
// Both intelligent attack models maintain the same bookkeeping: which
// overlay nodes have been *attempted* (break-in launched, successful or
// not — the attacker never attacks the same node twice) and which have been
// *disclosed* (identified as SOS members, via prior knowledge or a captured
// neighbor table). Filters are tracked separately because they can only be
// discovered through Layer-L captures and can never be broken into.
//
// The bit state is word-backed, and every first-time mark is also appended
// to a compact list, so reset() clears O(marked) bits instead of O(N) and
// pending_into()/disclosed_into() enumerate the marked lists instead of
// scanning the population — the attacker only ever touches O(budget) nodes
// of an N-million overlay.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitvec.h"

namespace sos::attack {

class AttackerKnowledge {
 public:
  AttackerKnowledge(int node_count, int filter_count) {
    reset(node_count, filter_count);
  }

  /// Forgets everything and resizes for a fresh overlay, reusing the
  /// existing buffers (allocation-free once they are large enough). Lets a
  /// per-thread knowledge object serve consecutive Monte Carlo trials.
  /// O(marked) when the sizes are unchanged.
  void reset(int node_count, int filter_count);

  int node_count() const noexcept {
    return static_cast<int>(attempted_bits_.size());
  }
  int filter_count() const noexcept {
    return static_cast<int>(filter_bits_.size());
  }

  bool attempted(int node) const {
    check_node(node);
    return attempted_bits_.test(static_cast<std::size_t>(node));
  }
  void mark_attempted(int node);

  bool disclosed(int node) const {
    check_node(node);
    return disclosed_bits_.test(static_cast<std::size_t>(node));
  }
  /// Idempotent; returns true when this call newly disclosed the node.
  bool disclose(int node);

  bool filter_disclosed(int filter) const {
    check_filter(filter);
    return filter_bits_.test(static_cast<std::size_t>(filter));
  }
  bool disclose_filter(int filter);

  /// Disclosed nodes that have never been attempted (Algorithm 1's X_j),
  /// in ascending node order. Overwrites `dest`, reusing its capacity.
  void pending_into(std::vector<int>& dest) const;
  int pending_count() const noexcept { return pending_count_; }

  /// All disclosed nodes in ascending order (overwrites `dest`). O(disclosed).
  void disclosed_into(std::vector<int>& dest) const;

  int attempted_count() const noexcept { return attempted_count_; }
  int disclosed_count() const noexcept { return disclosed_count_; }
  int disclosed_filter_count() const noexcept {
    return disclosed_filter_count_;
  }

  /// Bytes held by the bitsets and mark lists (their capacity).
  std::size_t footprint_bytes() const noexcept {
    return attempted_bits_.capacity_bytes() + disclosed_bits_.capacity_bytes() +
           filter_bits_.capacity_bytes() +
           (attempted_list_.capacity() + disclosed_list_.capacity()) *
               sizeof(int);
  }

 private:
  void check_node(int node) const;
  void check_filter(int filter) const;

  common::BitVec attempted_bits_;
  common::BitVec disclosed_bits_;
  common::BitVec filter_bits_;
  std::vector<int> attempted_list_;  // first-time marks, no duplicates
  std::vector<int> disclosed_list_;  // first-time marks, no duplicates
  int attempted_count_ = 0;
  int disclosed_count_ = 0;
  int disclosed_filter_count_ = 0;
  int pending_count_ = 0;
};

}  // namespace sos::attack
