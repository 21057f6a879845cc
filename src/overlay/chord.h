// Chord distributed lookup over a static membership set.
//
// The original SOS architecture routes between its layers over Chord so that
// no node needs global knowledge. This implementation builds the standard
// structures — sorted ring, per-node finger tables (successor(id + 2^k)) and
// successor lists — and performs greedy closest-preceding-finger routing
// with failure awareness: a lookup steps only through *alive* nodes, falling
// back through earlier fingers and successor-list entries when the preferred
// hop is dead, and fails when it can no longer make ring progress (which is
// exactly how congestion manifests as unavailability in the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "overlay/node_id.h"

namespace sos::overlay {

class ChordRing {
 public:
  /// Number of successor-list entries kept per node (Chord's r parameter).
  static constexpr int kSuccessorListSize = 8;

  /// Builds the ring over the given ids (duplicates rejected). Node handles
  /// returned by this class are *ring indices* in [0, size): position in
  /// id-sorted order.
  explicit ChordRing(std::vector<NodeId> ids);

  int size() const noexcept { return static_cast<int>(ids_.size()); }
  NodeId id_at(int ring_index) const { return ids_.at(static_cast<std::size_t>(ring_index)); }

  /// Ring index owning `key` (the first node clockwise from key, inclusive).
  int successor_index(NodeId key) const;

  /// The k-th finger of a node: successor(id + 2^k).
  int finger(int ring_index, int k) const;

  /// i-th entry of a node's successor list (i in [0, kSuccessorListSize)).
  int successor(int ring_index, int i = 0) const;

  struct LookupResult {
    bool ok = false;
    int hops = 0;             // overlay hops taken (excludes the origin)
    std::vector<int> path;    // ring indices visited, origin first
    int destination = -1;     // ring index responsible for the key (if ok)
  };

  /// Greedy Chord lookup from `from` (ring index) for `key`. `alive` gates
  /// which nodes may forward; the origin must be alive. The destination
  /// must also be alive for the lookup to succeed. `max_hops <= 0` selects
  /// a 4*log2(n)+8 default budget.
  LookupResult lookup(int from, NodeId key,
                      const std::function<bool(int)>& alive,
                      int max_hops = 0) const;

 private:
  std::vector<NodeId> ids_;          // sorted ascending
  std::vector<int> fingers_;         // size * 64, flattened
  std::vector<int> successors_;      // size * kSuccessorListSize, flattened

  int finger_unchecked(int ring_index, int k) const {
    return fingers_[static_cast<std::size_t>(ring_index) * 64 +
                    static_cast<std::size_t>(k)];
  }
};

}  // namespace sos::overlay
