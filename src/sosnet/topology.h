// Concrete realization of a SosDesign over an overlay-node population.
//
// Picks which of the N overlay nodes serve in which SOS layer, and builds
// the neighbor tables the design's mapping policy prescribes: every Layer-i
// node knows m_{i+1} distinct nodes of Layer i+1, and every Layer-L node
// knows m_{L+1} of the filters. Layer membership and table contents are
// uniformly random per instantiation (fresh randomness per Monte Carlo
// trial), which is exactly the distribution the paper's average-case
// analysis assumes.
//
// Storage is sized by the n SOS members, not by the N overlay nodes, except
// for one int8 per-node layer tag (the hot layer_of() read). Members are laid
// out layer-major in draw order in one contiguous entries array: the member
// of layer l at rank r (its index in members(l)) owns the m_{l+2} entries
// starting at layer_base[l] + r·m_{l+2} (the neighbor count is implied by the
// layer, so none is stored). A private open-addressing node → rank table,
// sized to a power of two >= 2n, finds a member's rank; bystanders own no
// table and no slot. Rebuilding for a new trial reuses every buffer, clears
// only the previous members' layer tags and resets the rank table, so
// steady-state rebuild cost is O(Σ nᵢ·mᵢ) — independent of N (with an O(N)
// reference path kept for first builds and common::force_full_scan()).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/design.h"

namespace sos::sosnet {

/// Reusable scratch for building topologies and sampling contact lists.
/// One per thread; consecutive trials reuse its capacity.
struct TopologyWorkspace {
  common::SampleScratch sample;       // sampling-without-replacement scratch
  std::vector<std::uint64_t> picks;   // draw destination buffer
  std::vector<int> contacts;          // client contact-list scratch

  /// Bytes held by the buffers (their capacity).
  std::size_t footprint_bytes() const noexcept {
    return sample.footprint_bytes() +
           picks.capacity() * sizeof(std::uint64_t) +
           contacts.capacity() * sizeof(int);
  }
};

class Topology {
 public:
  /// Samples SOS membership and neighbor tables for `design` from `rng`.
  Topology(const core::SosDesign& design, common::Rng& rng);

  /// Re-samples membership and neighbor tables from `rng` in place, reusing
  /// every buffer. Produces exactly the topology `Topology(design(), rng)`
  /// would, but allocation-free and O(members) once buffers are warm.
  void rebuild(common::Rng& rng, TopologyWorkspace& workspace);

  const core::SosDesign& design() const noexcept { return design_; }

  /// 0-based layer of an overlay node, or -1 for innocent bystanders.
  /// Hot path: unchecked (debug assert only).
  int layer_of(int node) const noexcept {
    assert(node >= 0 &&
           static_cast<std::size_t>(node) < layer_of_.size());
    return layer_of_[static_cast<std::size_t>(node)];
  }
  bool is_sos_member(int node) const noexcept { return layer_of(node) >= 0; }

  /// Overlay indices of the members of 0-based layer `layer`.
  const std::vector<int>& members(int layer) const {
    return members_.at(static_cast<std::size_t>(layer));
  }

  /// Next-layer neighbor table of an SOS node. For nodes in the last layer
  /// the entries are *filter* indices in [0, filter_count); for every other
  /// layer they are overlay node indices. Empty for non-members.
  /// Hot path: unchecked (debug assert only).
  std::span<const int> neighbors(int node) const noexcept {
    const int layer = layer_of(node);
    if (layer < 0) return {};
    const auto l = static_cast<std::size_t>(layer);
    const auto degree = static_cast<std::size_t>(degree_by_layer_[l]);
    return {entries_.data() + layer_base_[l] + rank_of(node) * degree, degree};
  }

  /// Nodes of layer 0 a fresh client would contact (m_1 distinct members).
  std::vector<int> sample_client_contacts(common::Rng& rng) const;

  /// In-place variant for the hot path: overwrites `dest`, reusing its
  /// capacity and `workspace`'s scratch. Same draws as the value overload.
  void sample_client_contacts_into(common::Rng& rng, std::vector<int>& dest,
                                   TopologyWorkspace& workspace) const;

  /// Role migration (defensive reconfiguration, Section 5 territory): hands
  /// `old_node`'s SOS role, rank and entry slot to `new_node` (must be a
  /// non-member). The new node gets a *fresh* random neighbor table into the
  /// next layer, and every previous-layer table entry pointing at old_node
  /// is rewritten to new_node (the overlay re-issues routing state, as SOS's
  /// secret-servlet reassignment does). old_node becomes an ordinary
  /// bystander whose identity is worthless to an attacker.
  void replace_member(int old_node, int new_node, common::Rng& rng);

  /// Bytes owned by per-node, per-member and per-entry topology state.
  std::size_t footprint_bytes() const noexcept;

 private:
  struct RankSlot {
    std::int32_t node = -1;  // -1: empty
    std::int32_t rank = 0;
  };

  void build(common::Rng& rng, TopologyWorkspace& workspace);
  /// Resets the rank table and keys every member by its index in members_.
  void index_members();

  std::size_t home_slot(int node) const noexcept {
    return (static_cast<std::uint32_t>(node) * 0x9e3779b1u) >> rank_shift_;
  }
  /// Rank of a member within its layer. Hot path: every member is keyed,
  /// so the probe always ends on it (debug assert only).
  std::size_t rank_of(int node) const noexcept {
    const std::size_t mask = rank_table_.size() - 1;
    std::size_t slot = home_slot(node);
    while (rank_table_[slot].node != node) {
      assert(rank_table_[slot].node >= 0);
      slot = (slot + 1) & mask;
    }
    return static_cast<std::size_t>(rank_table_[slot].rank);
  }

  core::SosDesign design_;
  std::vector<std::int8_t> layer_of_;      // size N, -1 for bystanders
  std::vector<std::vector<int>> members_;  // L layers, in rank order
  std::vector<std::int32_t> degree_by_layer_;  // implied neighbor counts
  std::vector<std::size_t> layer_base_;    // first entry of each layer
  std::vector<int> entries_;               // flat CSR neighbor storage
  std::vector<RankSlot> rank_table_;       // member -> rank, linear probing
  int rank_shift_ = 31;                    // 32 - log2(rank_table_.size())
  bool built_ = false;  // false until layer tags cover the whole population
};

}  // namespace sos::sosnet
