// 64-bit Chord ring identifiers and modular interval arithmetic.
//
// The SOS overlay routes via Chord [Stoica et al., SIGCOMM'01]; identifiers
// live on a ring of size 2^64 and every interval test must respect the
// wrap-around. These helpers are the foundation the finger-table and lookup
// logic is built (and tested) on.
#pragma once

#include <cstdint>
#include <string>

namespace sos::overlay {

/// Strongly-typed ring identifier (avoids mixing ids with indices).
struct NodeId {
  std::uint64_t value = 0;

  friend bool operator==(NodeId, NodeId) = default;
  friend auto operator<=>(NodeId, NodeId) = default;
};

/// Derives a well-spread ring id from an integer node index (splitmix64
/// avalanche), so consecutive indices land far apart on the ring.
NodeId node_id_from_index(std::uint64_t index, std::uint64_t seed);

/// Clockwise distance from `from` to `to` on the 2^64 ring (0 when equal).
std::uint64_t ring_distance(NodeId from, NodeId to);

/// True when x lies in the open clockwise interval (a, b). Empty when
/// a == b.
bool in_interval_open_open(NodeId a, NodeId b, NodeId x);

/// id + 2^k on the ring (finger-table start points), k in [0, 64).
NodeId finger_start(NodeId id, int k);

}  // namespace sos::overlay
