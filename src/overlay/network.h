// The overlay-node population the attacks operate on.
//
// Holds the N overlay nodes (SOS members plus innocent bystanders), their
// ring identifiers and their health. Health is the paper's three-way state:
// good nodes route; congested nodes are alive but unavailable (DDoS'd);
// broken-in nodes are controlled by the attacker (they disclose neighbors
// and are not congested on top). The attack code mutates health; the
// routing code only reads it.
//
// Scaling design (see DESIGN.md "Substrate scaling & memory layout"):
//  - Ring ids are derived lazily from the stored seed. Only Chord-mode
//    routing consumes them, so non-Chord trials never pay the O(N) derive.
//  - set_health records each node that leaves kGood in a dirty list, so
//    reset_health() is O(touched) with an O(N) fallback once the list
//    saturates (or when common::force_full_scan() is set).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "overlay/node_id.h"

namespace sos::overlay {

enum class NodeHealth : std::uint8_t {
  kGood = 0,
  kCongested = 1,
  kBrokenIn = 2,
};

/// Only good nodes forward traffic (a broken-in node would not forward
/// honestly and a congested one cannot).
constexpr bool can_route(NodeHealth health) noexcept {
  return health == NodeHealth::kGood;
}

class Network {
 public:
  /// Creates `node_count` nodes with well-spread distinct ring ids derived
  /// from `seed`. The ids themselves are materialized on first use.
  Network(int node_count, std::uint64_t seed);

  int size() const noexcept { return static_cast<int>(health_.size()); }
  NodeId id_of(int index) const {
    ensure_ids();
    return ids_[static_cast<std::size_t>(index)];
  }

  NodeHealth health(int index) const noexcept {
    assert(index >= 0 && index < size());
    return health_[static_cast<std::size_t>(index)];
  }
  void set_health(int index, NodeHealth health) noexcept {
    assert(index >= 0 && index < size());
    auto& slot = health_[static_cast<std::size_t>(index)];
    if (slot == health) return;
    if (slot == NodeHealth::kGood) record_touch(index);
    slot = health;
  }
  bool is_good(int index) const noexcept { return can_route(health(index)); }

  /// Restores every node to good (between Monte Carlo trials). O(touched)
  /// while the dirty list holds; O(N) once it saturates.
  void reset_health();

  /// Re-derives every ring id from `seed` and restores all health to good.
  /// Produces exactly the ids that `Network(size(), seed)` would. If the ids
  /// were never materialized this only re-stamps the seed (O(1) + reset).
  void reseed(std::uint64_t seed);

  int count(NodeHealth health) const;
  int good_count() const { return count(NodeHealth::kGood); }
  int congested_count() const { return count(NodeHealth::kCongested); }
  int broken_in_count() const { return count(NodeHealth::kBrokenIn); }

  const std::vector<NodeId>& ids() const {
    ensure_ids();
    return ids_;
  }

  /// True once the dirty list gave up on this trial (reset will be O(N)).
  bool health_scan_saturated() const noexcept { return touched_saturated_; }

  /// Nodes recorded as having left kGood since the last reset (may contain
  /// duplicates; empty when saturated). Insertion order.
  const std::vector<std::int32_t>& touched_health() const noexcept {
    return touched_;
  }

  /// Bytes owned by per-node state (health, dirty list, materialized ids).
  std::size_t footprint_bytes() const noexcept;

 private:
  void ensure_ids() const;
  void record_touch(int index) {
    if (touched_saturated_) return;
    if (touched_.size() * 4 >= health_.size()) {
      touched_saturated_ = true;
      touched_.clear();
      return;
    }
    touched_.push_back(static_cast<std::int32_t>(index));
  }
  static std::vector<NodeId> derive_ids(int node_count, std::uint64_t seed);

  std::uint64_t id_seed_ = 0;
  mutable std::vector<NodeId> ids_;  // lazily derived from id_seed_
  mutable bool ids_ready_ = false;
  std::vector<NodeHealth> health_;
  std::vector<std::int32_t> touched_;  // nodes whose health left kGood
  bool touched_saturated_ = false;
  std::vector<std::uint64_t> reseed_scratch_;  // sorted-id collision check
};

}  // namespace sos::overlay
