#include "sosnet/sos_overlay.h"

#include <algorithm>
#include <stdexcept>

namespace sos::sosnet {

namespace {

common::Rng topology_rng(std::uint64_t seed) { return common::Rng{seed}; }

/// Uniform draws migrate_member spends before its exact scan.
constexpr int kRecruitTries = 64;

}  // namespace

SosOverlay::SosOverlay(const core::SosDesign& design, std::uint64_t seed)
    : network_(design.total_overlay_nodes, seed),
      topology_([&] {
        auto rng = topology_rng(seed ^ 0xa5a5a5a5a5a5a5a5ull);
        return Topology{design, rng};
      }()),
      filter_congested_(static_cast<std::size_t>(design.filter_count)),
      substrate_(design.total_overlay_nodes, design.filter_count) {}

void SosOverlay::rebuild(std::uint64_t seed, TopologyWorkspace& workspace,
                         bool reseed_ids) {
  if (reseed_ids) {
    network_.reseed(seed);
  } else {
    network_.reset_health();
  }
  auto rng = topology_rng(seed ^ 0xa5a5a5a5a5a5a5a5ull);
  topology_.rebuild(rng, workspace);
  filter_congested_.reset_all();
  substrate_.reset();
  chord_.reset();
  ring_to_overlay_.clear();
}

int SosOverlay::migrate_member(int member, common::Rng& rng) {
  const auto candidate = [this](int node) {
    return !topology_.is_sos_member(node) && node_usable(node);
  };
  // Rejection: an accepted uniform node is uniform over the candidates. The
  // exact reservoir scan settles the rare run of misses (and "none left").
  int recruit = -1;
  for (int attempt = 0; attempt < kRecruitTries && recruit < 0; ++attempt) {
    const int node = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(network_.size())));
    if (candidate(node)) recruit = node;
  }
  if (recruit < 0) {
    int seen = 0;
    for (int node = 0; node < network_.size(); ++node) {
      if (!candidate(node)) continue;
      ++seen;
      if (rng.next_below(static_cast<std::uint64_t>(seen)) == 0) recruit = node;
    }
    if (recruit < 0) return -1;
  }
  topology_.replace_member(member, recruit, rng);
  return recruit;
}

void SosOverlay::set_filter_congested(int filter, bool congested) {
  if (filter < 0 || filter >= filter_count())
    throw std::out_of_range(
        "SosOverlay::set_filter_congested: filter out of range");
  filter_congested_.set(static_cast<std::size_t>(filter), congested);
}

int SosOverlay::congested_filter_count() const {
  return static_cast<int>(filter_congested_.count());
}

void SosOverlay::reset_health() {
  network_.reset_health();
  filter_congested_.reset_all();
  substrate_.reset();
}

std::size_t SosOverlay::footprint_bytes() const noexcept {
  return network_.footprint_bytes() + topology_.footprint_bytes() +
         filter_congested_.capacity_bytes() + substrate_.footprint_bytes() +
         ring_to_overlay_.capacity() * sizeof(int);
}

SosOverlay::LayerTally SosOverlay::tally(int layer) const {
  LayerTally out;
  for (const int node : topology_.members(layer)) {
    switch (network_.health(node)) {
      case overlay::NodeHealth::kBrokenIn:
        ++out.broken;
        break;
      case overlay::NodeHealth::kCongested:
        ++out.congested;
        break;
      case overlay::NodeHealth::kGood:
        ++out.good;
        break;
    }
  }
  return out;
}

std::optional<int> SosOverlay::pick_good(std::span<const int> candidates,
                                         common::Rng& rng) const {
  int good = 0;
  for (const int node : candidates)
    if (node_usable(node)) ++good;
  if (good == 0) return std::nullopt;
  int skip = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(good)));
  for (const int node : candidates) {
    if (!node_usable(node)) continue;
    if (skip-- == 0) return node;
  }
  return std::nullopt;  // unreachable
}

WalkResult SosOverlay::route_message(common::Rng& rng) const {
  WalkResult result;
  route_message(rng, result);
  return result;
}

void SosOverlay::route_message(common::Rng& rng, WalkResult& result) const {
  result.delivered = false;
  result.layer_hops = 0;
  result.transport_hops = 0;
  result.filter_used = -1;
  result.path.clear();
  const int layers = design().layers();

  topology_.sample_client_contacts_into(rng, walk_workspace_.contacts,
                                        walk_workspace_);
  auto current = pick_good(walk_workspace_.contacts, rng);
  if (!current) return;
  ++result.layer_hops;
  result.path.push_back(*current);

  for (int layer = 0; layer < layers - 1; ++layer) {
    current = pick_good(topology_.neighbors(*current), rng);
    if (!current) return;
    ++result.layer_hops;
    result.path.push_back(*current);
  }

  // Final hop: the Layer-L node forwards through one of its filters.
  const auto filters = topology_.neighbors(*current);
  int good = 0;
  for (const int filter : filters)
    if (!filter_blocked(filter)) ++good;
  if (good == 0) return;
  int skip = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(good)));
  for (const int filter : filters) {
    if (filter_blocked(filter)) continue;
    if (skip-- == 0) {
      result.filter_used = filter;
      break;
    }
  }
  ++result.layer_hops;
  result.delivered = true;
}

const overlay::ChordRing& SosOverlay::chord() const {
  if (!chord_) {
    chord_ = std::make_unique<overlay::ChordRing>(network_.ids());
  }
  return *chord_;
}

WalkResult SosOverlay::route_message_via_chord(common::Rng& rng) const {
  WalkResult result;
  const auto& ring = chord();
  const int layers = design().layers();

  // Ring indices are id-sorted; build the inverse map (ring index ->
  // overlay node) lazily alongside the ring.
  if (ring_to_overlay_.empty()) {
    ring_to_overlay_.resize(static_cast<std::size_t>(network_.size()));
    for (int node = 0; node < network_.size(); ++node) {
      const int ring_index = ring.successor_index(network_.id_of(node));
      ring_to_overlay_[static_cast<std::size_t>(ring_index)] = node;
    }
  }
  const auto is_alive = [this](int ring_index) {
    return node_usable(ring_to_overlay_[static_cast<std::size_t>(ring_index)]);
  };
  const auto chord_reachable = [&](int from_node, int to_node) {
    const int from_ring = ring.successor_index(network_.id_of(from_node));
    const auto lookup =
        ring.lookup(from_ring, network_.id_of(to_node), is_alive);
    if (lookup.ok) result.transport_hops += lookup.hops;
    return lookup.ok;
  };

  const auto contacts = topology_.sample_client_contacts(rng);
  auto current = pick_good(contacts, rng);
  if (!current) return result;
  ++result.layer_hops;
  result.path.push_back(*current);

  for (int layer = 0; layer < layers - 1; ++layer) {
    const auto next = pick_good(topology_.neighbors(*current), rng);
    if (!next) return result;
    if (!chord_reachable(*current, *next)) return result;
    current = next;
    ++result.layer_hops;
    result.path.push_back(*current);
  }

  const auto& filters = topology_.neighbors(*current);
  for (const int filter : filters) {
    if (!filter_blocked(filter)) {
      result.filter_used = filter;
      ++result.layer_hops;
      result.delivered = true;
      return result;
    }
  }
  return result;
}

}  // namespace sos::sosnet
