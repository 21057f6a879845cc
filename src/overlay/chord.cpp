#include "overlay/chord.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sos::overlay {

ChordRing::ChordRing(std::vector<NodeId> ids) : ids_(std::move(ids)) {
  if (ids_.empty()) throw std::invalid_argument("ChordRing: no nodes");
  std::sort(ids_.begin(), ids_.end());
  if (std::adjacent_find(ids_.begin(), ids_.end()) != ids_.end())
    throw std::invalid_argument("ChordRing: duplicate node ids");

  const int n = size();
  fingers_.resize(static_cast<std::size_t>(n) * 64);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 64; ++k) {
      fingers_[static_cast<std::size_t>(i) * 64 + static_cast<std::size_t>(k)] =
          successor_index(finger_start(ids_[static_cast<std::size_t>(i)], k));
    }
  }
}

int ChordRing::successor_index(NodeId key) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (it == ids_.end()) return 0;  // wrap to the smallest id
  return static_cast<int>(it - ids_.begin());
}

int ChordRing::finger(int ring_index, int k) const {
  if (ring_index < 0 || ring_index >= size())
    throw std::out_of_range("ChordRing::finger: bad node");
  if (k < 0 || k >= 64) throw std::out_of_range("ChordRing::finger: bad k");
  return finger_unchecked(ring_index, k);
}

int ChordRing::successor(int ring_index, int i) const {
  if (ring_index < 0 || ring_index >= size())
    throw std::out_of_range("ChordRing::successor: bad node");
  if (i < 0 || i >= kSuccessorListSize)
    throw std::out_of_range("ChordRing::successor: bad list entry");
  return (ring_index + 1 + i) % size();
}

ChordRing::LookupResult ChordRing::lookup(
    int from, NodeId key, const std::function<bool(int)>& alive,
    int max_hops) const {
  LookupResult result;
  if (from < 0 || from >= size())
    throw std::out_of_range("ChordRing::lookup: bad origin");
  result.path.push_back(from);
  if (!alive(from)) return result;

  const int dest = successor_index(key);
  if (max_hops <= 0) {
    const double lg = std::log2(static_cast<double>(std::max(2, size())));
    max_hops = 4 * static_cast<int>(std::ceil(lg)) + 8;
  }

  int current = from;
  while (current != dest) {
    if (result.hops >= max_hops) return result;  // routing loop safeguard

    const NodeId here = ids_[static_cast<std::size_t>(current)];
    int next = -1;
    // Closest preceding *alive* finger: highest-k finger strictly between
    // the current node and the key makes the biggest safe jump.
    for (int k = 63; k >= 0; --k) {
      const int f = finger_unchecked(current, k);
      if (f == current) continue;
      if (in_interval_open_open(here, key, ids_[static_cast<std::size_t>(f)]) &&
          alive(f)) {
        next = f;
        break;
      }
    }
    if (next == -1) {
      // Successor-list fallback: either the destination itself or any alive
      // node that still makes clockwise progress toward the key.
      for (int i = 0; i < kSuccessorListSize && i < size() - 1; ++i) {
        const int s = successor(current, i);
        if (!alive(s)) continue;
        if (s == dest ||
            in_interval_open_open(here, key,
                                  ids_[static_cast<std::size_t>(s)])) {
          next = s;
          break;
        }
      }
    }
    if (next == -1) return result;  // no alive hop can make progress
    current = next;
    ++result.hops;
    result.path.push_back(current);
  }

  if (!alive(dest)) return result;
  result.ok = true;
  result.destination = dest;
  return result;
}

}  // namespace sos::overlay
