#include "overlay/node_id.h"

#include <cassert>

#include "common/rng.h"

namespace sos::overlay {

NodeId node_id_from_index(std::uint64_t index, std::uint64_t seed) {
  return NodeId{common::mix64(index * 0x9e3779b97f4a7c15ull ^ seed)};
}

std::uint64_t ring_distance(NodeId from, NodeId to) {
  return to.value - from.value;  // unsigned wrap-around is the ring metric
}

bool in_interval_open_open(NodeId a, NodeId b, NodeId x) {
  if (a == b) return false;
  return ring_distance(a, x) != 0 &&
         ring_distance(a, x) < ring_distance(a, b);
}

NodeId finger_start(NodeId id, int k) {
  assert(k >= 0 && k < 64);
  return NodeId{id.value + (std::uint64_t{1} << k)};
}

}  // namespace sos::overlay
