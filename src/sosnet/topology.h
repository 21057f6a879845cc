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
// Storage is a compact SoA layout sized for N in the millions: an int8
// per-node layer tag, a uint32 per-node entry offset (the neighbor count is
// implied by the layer, so no per-node count is stored), and one contiguous
// entries array. Rebuilding for a new trial reuses every buffer and clears
// only the previous members' layer tags, so steady-state rebuild cost is
// O(Σ nᵢ·mᵢ) — independent of N (with an O(N) reference path kept for
// first builds and common::force_full_scan()).
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

  /// Same, but sampling through `workspace` so repeated builds share scratch.
  Topology(const core::SosDesign& design, common::Rng& rng,
           TopologyWorkspace& workspace);

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
    return {entries_.data() + slot_offset_[static_cast<std::size_t>(node)],
            static_cast<std::size_t>(
                degree_by_layer_[static_cast<std::size_t>(layer)])};
  }

  /// Nodes of layer 0 a fresh client would contact (m_1 distinct members).
  std::vector<int> sample_client_contacts(common::Rng& rng) const;

  /// In-place variant for the hot path: overwrites `dest`, reusing its
  /// capacity and `workspace`'s scratch. Same draws as the value overload.
  void sample_client_contacts_into(common::Rng& rng, std::vector<int>& dest,
                                   TopologyWorkspace& workspace) const;

  /// Role migration (defensive reconfiguration, Section 5 territory): hands
  /// `old_node`'s SOS role to `new_node` (must be a non-member). The new
  /// node inherits a *fresh* random neighbor table into the next layer, and
  /// every previous-layer table entry pointing at old_node is rewritten to
  /// new_node (the overlay re-issues routing state, as SOS's secret-servlet
  /// reassignment does). old_node becomes an ordinary bystander whose
  /// identity is worthless to an attacker.
  void replace_member(int old_node, int new_node, common::Rng& rng);

  /// Bytes owned by per-node and per-entry topology state.
  std::size_t footprint_bytes() const noexcept;

 private:
  void build(common::Rng& rng, TopologyWorkspace& workspace);

  core::SosDesign design_;
  std::vector<std::int8_t> layer_of_;      // size N, -1 for bystanders
  std::vector<std::vector<int>> members_;  // L layers
  std::vector<std::uint32_t> slot_offset_; // size N; valid only for members
  std::vector<std::int32_t> degree_by_layer_;  // implied neighbor counts
  std::vector<int> entries_;               // flat CSR neighbor storage
  bool built_ = false;  // false until layer tags cover the whole population
};

}  // namespace sos::sosnet
