#include "sosnet/topology.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/scan_mode.h"

namespace sos::sosnet {

namespace {

void check_layer_range(const core::SosDesign& design) {
  // Layer tags are int8_t; -1 marks bystanders, so 127 layers fit.
  if (design.layers() > 127)
    throw std::invalid_argument("Topology: more than 127 layers unsupported");
}

}  // namespace

Topology::Topology(const core::SosDesign& design, common::Rng& rng)
    : design_(design) {
  design_.validate();
  check_layer_range(design_);
  TopologyWorkspace workspace;
  build(rng, workspace);
}

void Topology::rebuild(common::Rng& rng, TopologyWorkspace& workspace) {
  build(rng, workspace);
}

void Topology::build(common::Rng& rng, TopologyWorkspace& workspace) {
  const int big_n = design_.total_overlay_nodes;
  const int layers = design_.layers();

  // Incremental clear: layer_of_ already reads -1 everywhere except the
  // previous build's members (replace_member keeps members_/layer_of_ in
  // sync), so resetting those members' tags restores the blank state in
  // O(Σ nᵢ) instead of O(N).
  const bool full_clear = !built_ ||
                          layer_of_.size() != static_cast<std::size_t>(big_n) ||
                          common::force_full_scan();
  if (full_clear) {
    layer_of_.assign(static_cast<std::size_t>(big_n), -1);
  } else {
    for (const auto& layer_members : members_)
      for (const int node : layer_members)
        layer_of_[static_cast<std::size_t>(node)] = -1;
  }
  built_ = true;
  members_.resize(static_cast<std::size_t>(layers));
  degree_by_layer_.resize(static_cast<std::size_t>(layers));
  layer_base_.resize(static_cast<std::size_t>(layers));

  // Total neighbor-table entries are fixed by the design, so the flat CSR
  // entries array is sized once and reused verbatim on rebuilds.
  std::size_t total_entries = 0;
  for (int layer = 0; layer < layers; ++layer) {
    const auto l = static_cast<std::size_t>(layer);
    degree_by_layer_[l] = design_.degree_into(layer + 2);
    layer_base_[l] = total_entries;
    total_entries += static_cast<std::size_t>(design_.layer_size(layer + 1)) *
                     static_cast<std::size_t>(degree_by_layer_[l]);
  }
  entries_.resize(total_entries);

  // Uniformly choose which overlay nodes serve, then slice the (already
  // random) sample into layers in order.
  auto& chosen = workspace.picks;
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(big_n),
      static_cast<std::uint64_t>(design_.sos_node_count()), chosen,
      workspace.sample);
  std::size_t cursor = 0;
  for (int layer = 0; layer < layers; ++layer) {
    auto& layer_members = members_[static_cast<std::size_t>(layer)];
    layer_members.clear();
    layer_members.reserve(static_cast<std::size_t>(design_.layer_size(layer + 1)));
    for (int k = 0; k < design_.layer_size(layer + 1); ++k) {
      const int node = static_cast<int>(chosen[cursor++]);
      layer_of_[static_cast<std::size_t>(node)] = static_cast<std::int8_t>(layer);
      layer_members.push_back(node);
    }
  }
  index_members();

  // Neighbor tables: m_{i+1} distinct random members of the next layer; the
  // last layer points at filters instead. Tables are written in rank order,
  // so each member's table lands at its derived slot.
  std::size_t entry_cursor = 0;
  auto& picks = workspace.picks;
  for (int layer = 0; layer < layers; ++layer) {
    const bool last = layer == layers - 1;
    const int next_size = last ? design_.filter_count
                               : design_.layer_size(layer + 2);
    const int degree = degree_by_layer_[static_cast<std::size_t>(layer)];
    const std::vector<int>* next_members =
        last ? nullptr : &members_[static_cast<std::size_t>(layer + 1)];
    for (int rank = 0; rank < design_.layer_size(layer + 1); ++rank) {
      rng.sample_without_replacement_into(
          static_cast<std::uint64_t>(next_size),
          static_cast<std::uint64_t>(degree), picks, workspace.sample);
      for (const auto pick : picks) {
        entries_[entry_cursor++] =
            last ? static_cast<int>(pick)
                 : (*next_members)[static_cast<std::size_t>(pick)];
      }
    }
  }
}

void Topology::index_members() {
  const auto capacity = std::bit_ceil(
      2 * static_cast<std::size_t>(design_.sos_node_count()));
  rank_table_.assign(capacity, RankSlot{});
  rank_shift_ = 32 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const auto& layer_members : members_) {
    for (std::size_t rank = 0; rank < layer_members.size(); ++rank) {
      std::size_t slot = home_slot(layer_members[rank]);
      while (rank_table_[slot].node >= 0) slot = (slot + 1) & mask;
      rank_table_[slot] = {layer_members[rank], static_cast<std::int32_t>(rank)};
    }
  }
}

void Topology::replace_member(int old_node, int new_node, common::Rng& rng) {
  if (old_node < 0 || static_cast<std::size_t>(old_node) >= layer_of_.size() ||
      new_node < 0 || static_cast<std::size_t>(new_node) >= layer_of_.size())
    throw std::invalid_argument("Topology::replace_member: node out of range");
  const int layer = layer_of(old_node);
  if (layer < 0)
    throw std::invalid_argument("Topology::replace_member: not a member");
  if (layer_of(new_node) >= 0)
    throw std::invalid_argument(
        "Topology::replace_member: replacement already serves");

  // Swap the membership records: the recruit takes the retired node's rank,
  // and with it the retired node's entry slot (same degree policy).
  const auto l = static_cast<std::size_t>(layer);
  const std::size_t rank = rank_of(old_node);
  layer_of_[static_cast<std::size_t>(old_node)] = -1;
  layer_of_[static_cast<std::size_t>(new_node)] =
      static_cast<std::int8_t>(layer);
  members_[l][rank] = new_node;
  index_members();

  // The recruit gets a *fresh* next-layer table; the old node's is revoked
  // with its tag.
  const bool last = layer == design_.layers() - 1;
  const int next_size =
      last ? design_.filter_count : design_.layer_size(layer + 2);
  const auto degree = static_cast<std::size_t>(degree_by_layer_[l]);
  const auto picks = rng.sample_without_replacement(
      static_cast<std::uint64_t>(next_size),
      static_cast<std::uint64_t>(degree));
  int* const table = entries_.data() + layer_base_[l] + rank * degree;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    table[i] = last ? static_cast<int>(picks[i])
                    : members_[l + 1][static_cast<std::size_t>(picks[i])];
  }

  // Re-issue upstream routing state: previous-layer tables (one contiguous
  // entry range) that pointed at the retired node now point at its
  // replacement.
  if (layer > 0) {
    std::replace(entries_.begin() + static_cast<std::ptrdiff_t>(layer_base_[l - 1]),
                 entries_.begin() + static_cast<std::ptrdiff_t>(layer_base_[l]),
                 old_node, new_node);
  }
}

std::vector<int> Topology::sample_client_contacts(common::Rng& rng) const {
  std::vector<int> contacts;
  TopologyWorkspace workspace;
  sample_client_contacts_into(rng, contacts, workspace);
  return contacts;
}

void Topology::sample_client_contacts_into(
    common::Rng& rng, std::vector<int>& dest,
    TopologyWorkspace& workspace) const {
  const int degree = design_.degree_into(1);
  const auto& first_layer = members_.front();
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(first_layer.size()),
      static_cast<std::uint64_t>(degree), workspace.picks, workspace.sample);
  dest.clear();
  dest.reserve(workspace.picks.size());
  for (const auto pick : workspace.picks)
    dest.push_back(first_layer[static_cast<std::size_t>(pick)]);
}

std::size_t Topology::footprint_bytes() const noexcept {
  std::size_t members_bytes = 0;
  for (const auto& layer_members : members_)
    members_bytes += layer_members.capacity() * sizeof(int);
  return layer_of_.capacity() * sizeof(std::int8_t) +
         degree_by_layer_.capacity() * sizeof(std::int32_t) +
         layer_base_.capacity() * sizeof(std::size_t) +
         entries_.capacity() * sizeof(int) +
         rank_table_.capacity() * sizeof(RankSlot) + members_bytes;
}

}  // namespace sos::sosnet
