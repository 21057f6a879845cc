// SosOverlay — the runnable system: topology + node health + routing.
//
// Combines a concrete Topology with the overlay Network health state and a
// filter-ring health vector, and implements the paper's distributed routing
// walk: a client contacts one of its m_1 Layer-1 contacts; each node
// forwards to a uniformly chosen *good* next-layer neighbor; delivery
// succeeds when a good filter is reached. An optional Chord fidelity mode
// additionally routes every inter-layer step through the Chord ring over
// all N overlay nodes (the original SOS transport), so congested bystanders
// can also break paths.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "core/design.h"
#include "overlay/chord.h"
#include "overlay/network.h"
#include "sosnet/health_state.h"
#include "sosnet/topology.h"

namespace sos::sosnet {

struct WalkResult {
  bool delivered = false;
  int layer_hops = 0;       // SOS-layer hops taken (client hop included)
  int transport_hops = 0;   // Chord hops underneath (chord mode only)
  std::vector<int> path;    // overlay node indices visited, in order
  int filter_used = -1;     // filter index that accepted the message
};

class SosOverlay {
 public:
  /// Builds network, topology and neighbor tables from `seed`.
  SosOverlay(const core::SosDesign& design, std::uint64_t seed);

  /// Re-derives the whole overlay from a fresh `seed` in place: new node
  /// ids, new membership, new neighbor tables, all health restored. Produces
  /// exactly the state `SosOverlay(design(), seed)` would, but reuses every
  /// buffer (plus `workspace`'s scratch), so consecutive Monte Carlo trials
  /// are allocation-free in steady state. When `reseed_ids` is false the
  /// (outcome-irrelevant outside Chord mode) ring ids are kept, skipping the
  /// id re-derivation entirely.
  void rebuild(std::uint64_t seed, TopologyWorkspace& workspace,
               bool reseed_ids = true);

  const core::SosDesign& design() const noexcept { return topology_.design(); }
  const Topology& topology() const noexcept { return topology_; }
  /// Mutable access for defensive reconfiguration (role migration).
  Topology& mutable_topology() noexcept { return topology_; }

  /// Defensive role migration: retires `member` (keeps its health as an
  /// ordinary bystander) and recruits a uniformly chosen *usable* (attack-good
  /// and not crashed) non-member in its place. The recruit is drawn by
  /// rejection — a uniform node, retried while it is a member or unusable,
  /// up to 64 tries — and then, only if every try missed, by an exact
  /// reservoir scan over all nodes; both are uniform over the same
  /// candidates. Returns the recruit, or -1 when no usable bystander is left.
  int migrate_member(int member, common::Rng& rng);
  overlay::Network& network() noexcept { return network_; }
  const overlay::Network& network() const noexcept { return network_; }

  int filter_count() const { return design().filter_count; }
  /// Hot path: unchecked (debug assert only).
  bool filter_congested(int filter) const noexcept {
    assert(filter >= 0 && filter < filter_count());
    return filter_congested_.test(static_cast<std::size_t>(filter));
  }
  void set_filter_congested(int filter, bool congested);
  /// Popcount over the filter bitset — no linear bool scan.
  int congested_filter_count() const;

  /// Benign substrate health (crashes, lossiness, filter flaps), orthogonal
  /// to the attack state above. All-up unless a fault injector (or test)
  /// says otherwise; reset by rebuild()/reset_health().
  HealthState& substrate() noexcept { return substrate_; }
  const HealthState& substrate() const noexcept { return substrate_; }

  /// A node forwards traffic iff the attacker left it good AND the
  /// substrate has it up (lossy nodes still forward; the loss shows up in
  /// the protocol simulation, not the walk). Hot path: unchecked.
  bool node_usable(int node) const noexcept {
    return network_.is_good(node) && !substrate_.node_crashed(node);
  }
  /// A filter blocks traffic when attacker-congested OR benignly flapped.
  /// Hot path: unchecked (debug assert only).
  bool filter_blocked(int filter) const noexcept {
    return filter_congested(filter) || substrate_.filter_flapped(filter);
  }

  /// Restores every overlay node and filter to healthy.
  void reset_health();

  /// Per-layer health tally (0-based layer): broken/congested/good split
  /// the members by attack state.
  struct LayerTally {
    int broken = 0;
    int congested = 0;
    int good = 0;
  };
  LayerTally tally(int layer) const;

  /// One client message attempt through the layered overlay.
  WalkResult route_message(common::Rng& rng) const;

  /// In-place variant for the hot path: overwrites `result` (reusing its
  /// path capacity). Not safe for concurrent calls on one overlay — each
  /// thread owns its overlay in the Monte Carlo engine.
  void route_message(common::Rng& rng, WalkResult& result) const;

  /// Same walk, but every inter-layer edge must also be realizable as a
  /// Chord lookup through alive overlay nodes. Builds the ring on first use
  /// (it is membership-static).
  WalkResult route_message_via_chord(common::Rng& rng) const;

  /// Ring accessor (built on demand); exposed for the Chord benches.
  const overlay::ChordRing& chord() const;

  /// Bytes owned by the overlay's per-node state (network health + ids,
  /// topology tags/tables, substrate bitsets, filter bitset). Excludes the
  /// lazily built Chord ring, which only Chord mode materializes.
  std::size_t footprint_bytes() const noexcept;

 private:
  /// Picks a uniformly random usable entry of `candidates` (overlay nodes:
  /// attack-good and not crashed); nullopt when all are unusable.
  std::optional<int> pick_good(std::span<const int> candidates,
                               common::Rng& rng) const;

  overlay::Network network_;
  Topology topology_;
  common::BitVec filter_congested_;
  HealthState substrate_;
  mutable std::unique_ptr<overlay::ChordRing> chord_;  // lazy
  mutable std::vector<int> ring_to_overlay_;           // ring index -> node
  mutable TopologyWorkspace walk_workspace_;  // contact-list scratch
};

}  // namespace sos::sosnet
