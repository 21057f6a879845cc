#include "sosnet/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "sosnet/sos_overlay.h"

namespace sos::sosnet {
namespace {

core::SosDesign design_with(int layers, core::MappingPolicy mapping,
                            const core::NodeDistribution& dist =
                                core::NodeDistribution::even()) {
  return core::SosDesign::make(1000, 60, layers, 10, mapping, dist);
}

/// Designs for the member-table properties: L = 1..5, the fixed, fraction
/// and all mappings, a custom distribution, and N from 2n up to 1e5.
std::vector<core::SosDesign> table_designs() {
  return {
      core::SosDesign::make(40, 20, 1, 4, core::MappingPolicy::one_to_one()),
      core::SosDesign::make(1000, 60, 2, 10, core::MappingPolicy::one_to_two()),
      core::SosDesign::make(2000, 45, 3, 10, core::MappingPolicy::one_to_all()),
      core::SosDesign::make(100'000, 100, 4, 10,
                            core::MappingPolicy::one_to_five(),
                            core::NodeDistribution::custom({1, 2, 3, 4})),
      core::SosDesign::make(500, 100, 5, 7, core::MappingPolicy::one_to_half()),
  };
}

/// First violated table invariant, or "" when the topology is consistent:
/// tags name exactly the members of each layer, every member's table has
/// its layer's degree with distinct entries in the next layer (filters for
/// the last), bystanders have empty tables, and no entry names a node in
/// `retired`.
std::string table_violation(const Topology& topology,
                            const std::set<int>& retired) {
  const auto& design = topology.design();
  std::vector<int> expected_tag(
      static_cast<std::size_t>(design.total_overlay_nodes), -1);
  for (int layer = 0; layer < design.layers(); ++layer)
    for (const int node : topology.members(layer))
      expected_tag[static_cast<std::size_t>(node)] = layer;
  for (int node = 0; node < design.total_overlay_nodes; ++node) {
    const int layer = expected_tag[static_cast<std::size_t>(node)];
    if (topology.layer_of(node) != layer)
      return "node " + std::to_string(node) + " tagged " +
             std::to_string(topology.layer_of(node)) + ", expected " +
             std::to_string(layer);
    if (layer < 0 && !topology.neighbors(node).empty())
      return "bystander " + std::to_string(node) + " has a table";
  }
  for (int layer = 0; layer < design.layers(); ++layer) {
    const bool last = layer + 1 == design.layers();
    for (const int node : topology.members(layer)) {
      const auto table = topology.neighbors(node);
      if (static_cast<int>(table.size()) != design.degree_into(layer + 2))
        return "member " + std::to_string(node) + " has " +
               std::to_string(table.size()) + " entries";
      if (std::set<int>(table.begin(), table.end()).size() != table.size())
        return "member " + std::to_string(node) + " repeats an entry";
      for (const int entry : table) {
        const bool in_next_layer =
            last ? entry >= 0 && entry < design.filter_count
                 : topology.layer_of(entry) == layer + 1;
        if (!in_next_layer || (!last && retired.count(entry) > 0))
          return "member " + std::to_string(node) + " points at " +
                 std::to_string(entry);
      }
    }
  }
  return "";
}

/// FNV-1a over every member list and every member's table, in layer order.
std::uint64_t topology_digest(const Topology& topology) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto fold = [&hash](int value) {
    const auto bits = static_cast<std::uint32_t>(value);
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  const int layers = topology.design().layers();
  for (int layer = 0; layer < layers; ++layer) {
    fold(static_cast<int>(topology.members(layer).size()));
    for (const int node : topology.members(layer)) fold(node);
  }
  for (int layer = 0; layer < layers; ++layer)
    for (const int node : topology.members(layer))
      for (const int entry : topology.neighbors(node)) fold(entry);
  return hash;
}

/// A uniformly drawn member of a uniformly drawn layer.
int random_member(const Topology& topology, common::Rng& rng) {
  const auto layer =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          topology.design().layers())));
  const auto& members = topology.members(layer);
  return members[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(members.size())))];
}

/// A uniformly drawn non-member, by rejection.
int random_bystander(const Topology& topology, common::Rng& rng) {
  for (;;) {
    const auto node = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(topology.design().total_overlay_nodes)));
    if (!topology.is_sos_member(node)) return node;
  }
}

TEST(Topology, LayerMembershipMatchesDesign) {
  common::Rng rng{1};
  const auto design = design_with(3, core::MappingPolicy::one_to_five());
  const Topology topology{design, rng};

  std::set<int> all_members;
  for (int layer = 0; layer < 3; ++layer) {
    const auto& members = topology.members(layer);
    EXPECT_EQ(static_cast<int>(members.size()), design.layer_size(layer + 1));
    for (const int node : members) {
      EXPECT_EQ(topology.layer_of(node), layer);
      EXPECT_TRUE(topology.is_sos_member(node));
      all_members.insert(node);
    }
  }
  EXPECT_EQ(static_cast<int>(all_members.size()), design.sos_node_count());
}

TEST(Topology, BystandersHaveNoLayerAndNoNeighbors) {
  common::Rng rng{2};
  const auto design = design_with(3, core::MappingPolicy::one_to_five());
  const Topology topology{design, rng};
  int bystanders = 0;
  for (int node = 0; node < design.total_overlay_nodes; ++node) {
    if (topology.is_sos_member(node)) continue;
    ++bystanders;
    EXPECT_EQ(topology.layer_of(node), -1);
    EXPECT_TRUE(topology.neighbors(node).empty());
  }
  EXPECT_EQ(bystanders, design.total_overlay_nodes - design.sos_node_count());
}

TEST(Topology, NeighborTablesHaveMappingDegreeAndPointToNextLayer) {
  common::Rng rng{3};
  const auto design = design_with(3, core::MappingPolicy::one_to_five());
  const Topology topology{design, rng};
  for (int layer = 0; layer + 1 < 3; ++layer) {
    for (const int node : topology.members(layer)) {
      const auto& table = topology.neighbors(node);
      EXPECT_EQ(static_cast<int>(table.size()), design.degree_into(layer + 2));
      std::set<int> unique(table.begin(), table.end());
      EXPECT_EQ(unique.size(), table.size());  // distinct entries
      for (const int neighbor : table)
        EXPECT_EQ(topology.layer_of(neighbor), layer + 1);
    }
  }
}

TEST(Topology, LastLayerPointsAtFilters) {
  common::Rng rng{4};
  const auto design = design_with(3, core::MappingPolicy::one_to_half());
  const Topology topology{design, rng};
  const int filter_degree = design.degree_into(4);
  for (const int node : topology.members(2)) {
    const auto& table = topology.neighbors(node);
    EXPECT_EQ(static_cast<int>(table.size()), filter_degree);
    for (const int filter : table) {
      EXPECT_GE(filter, 0);
      EXPECT_LT(filter, design.filter_count);
    }
  }
}

TEST(Topology, OneToAllTablesAreComplete) {
  common::Rng rng{5};
  const auto design = design_with(3, core::MappingPolicy::one_to_all());
  const Topology topology{design, rng};
  for (const int node : topology.members(0)) {
    std::set<int> table(topology.neighbors(node).begin(),
                        topology.neighbors(node).end());
    std::set<int> next(topology.members(1).begin(),
                       topology.members(1).end());
    EXPECT_EQ(table, next);
  }
}

TEST(Topology, ClientContactsComeFromFirstLayer) {
  common::Rng rng{6};
  const auto design = design_with(4, core::MappingPolicy::one_to_five());
  const Topology topology{design, rng};
  for (int draw = 0; draw < 20; ++draw) {
    const auto contacts = topology.sample_client_contacts(rng);
    EXPECT_EQ(static_cast<int>(contacts.size()), design.degree_into(1));
    std::set<int> unique(contacts.begin(), contacts.end());
    EXPECT_EQ(unique.size(), contacts.size());
    for (const int node : contacts) EXPECT_EQ(topology.layer_of(node), 0);
  }
}

TEST(Topology, DifferentSeedsGiveDifferentMembership) {
  const auto design = design_with(3, core::MappingPolicy::one_to_five());
  common::Rng rng_a{7}, rng_b{8};
  const Topology a{design, rng_a};
  const Topology b{design, rng_b};
  EXPECT_NE(a.members(0), b.members(0));
}

TEST(Topology, ReplaceMemberSwapsRoleAndRewiresUpstream) {
  common::Rng rng{31};
  const auto design = design_with(3, core::MappingPolicy::one_to_five());
  Topology topology{design, rng};

  const int old_node = topology.members(1)[3];
  int recruit = -1;
  for (int node = 0; node < design.total_overlay_nodes; ++node) {
    if (!topology.is_sos_member(node)) {
      recruit = node;
      break;
    }
  }
  ASSERT_GE(recruit, 0);

  // Record which layer-0 nodes pointed at the retiring member.
  std::vector<int> upstream_pointers;
  for (const int upstream : topology.members(0)) {
    const auto& table = topology.neighbors(upstream);
    if (std::count(table.begin(), table.end(), old_node) > 0)
      upstream_pointers.push_back(upstream);
  }

  topology.replace_member(old_node, recruit, rng);

  EXPECT_EQ(topology.layer_of(old_node), -1);
  EXPECT_TRUE(topology.neighbors(old_node).empty());
  EXPECT_EQ(topology.layer_of(recruit), 1);
  EXPECT_EQ(static_cast<int>(topology.neighbors(recruit).size()),
            design.degree_into(3));
  for (const int neighbor : topology.neighbors(recruit))
    EXPECT_EQ(topology.layer_of(neighbor), 2);
  // Upstream tables were re-issued.
  for (const int upstream : upstream_pointers) {
    const auto& table = topology.neighbors(upstream);
    EXPECT_EQ(std::count(table.begin(), table.end(), old_node), 0);
    EXPECT_EQ(std::count(table.begin(), table.end(), recruit), 1);
  }
}

TEST(Topology, ReplaceMemberValidatesArguments) {
  common::Rng rng{37};
  const auto design = design_with(2, core::MappingPolicy::one_to_one());
  Topology topology{design, rng};
  int bystander = -1;
  for (int node = 0; node < design.total_overlay_nodes; ++node)
    if (!topology.is_sos_member(node)) {
      bystander = node;
      break;
    }
  // Non-member cannot be retired; member cannot be the recruit.
  EXPECT_THROW(topology.replace_member(bystander, bystander,  rng),
               std::invalid_argument);
  const int member_a = topology.members(0)[0];
  const int member_b = topology.members(1)[0];
  EXPECT_THROW(topology.replace_member(member_a, member_b, rng),
               std::invalid_argument);
}

TEST(Topology, RebuildInPlaceMatchesFreshConstruction) {
  const auto design = design_with(4, core::MappingPolicy::one_to_five());

  // Build once with an unrelated seed to dirty every buffer, then rebuild
  // from the reference stream: the result must match a fresh build bit for
  // bit — same members, same neighbor tables, same generator state.
  common::Rng dirty_rng{999};
  TopologyWorkspace workspace;
  Topology rebuilt{design, dirty_rng};
  rebuilt.rebuild(dirty_rng, workspace);
  common::Rng stream{42};
  rebuilt.rebuild(stream, workspace);

  common::Rng reference_stream{42};
  const Topology fresh{design, reference_stream};

  for (int layer = 0; layer < design.layers(); ++layer)
    EXPECT_EQ(rebuilt.members(layer), fresh.members(layer));
  for (int node = 0; node < design.total_overlay_nodes; ++node) {
    EXPECT_EQ(rebuilt.layer_of(node), fresh.layer_of(node));
    const auto a = rebuilt.neighbors(node);
    const auto b = fresh.neighbors(node);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  EXPECT_EQ(stream.next(), reference_stream.next());
}

TEST(Topology, MembershipIsUniformAcrossTheOverlay) {
  // Any given overlay node should serve with probability n/N; check that
  // membership is not clustered at low indices.
  const auto design = design_with(2, core::MappingPolicy::one_to_one());
  int low_half = 0;
  constexpr int kBuilds = 200;
  for (int build = 0; build < kBuilds; ++build) {
    common::Rng rng{static_cast<std::uint64_t>(build) + 100};
    const Topology topology{design, rng};
    for (int layer = 0; layer < 2; ++layer)
      for (const int node : topology.members(layer))
        if (node < design.total_overlay_nodes / 2) ++low_half;
  }
  const double fraction =
      static_cast<double>(low_half) /
      (kBuilds * design.sos_node_count());
  EXPECT_NEAR(fraction, 0.5, 0.05);
}

// Role migrations re-key the member tables in place; after every one the
// tables must still describe a consistent topology, and a rebuild must leave
// nothing of them behind (a stale key would make it differ from a fresh
// build).
TEST(Topology, MemberTableSurvivesMigrationsAndRebuilds) {
  const auto designs = table_designs();
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& design = designs[d];
    SCOPED_TRACE(design.summary());
    SosOverlay overlay{design, 0x7ab1e + d};
    Topology& topology = overlay.mutable_topology();
    ASSERT_EQ(table_violation(topology, {}), "");

    common::Rng rng{0x5eed + d};
    std::set<int> retired;
    for (int call = 0; call < 50; ++call) {
      const int old_node = random_member(topology, rng);
      int new_node = -1;
      if (rng.bernoulli(0.5)) {
        new_node = random_bystander(topology, rng);
        topology.replace_member(old_node, new_node, rng);
      } else {
        new_node = overlay.migrate_member(old_node, rng);
        ASSERT_GE(new_node, 0);
      }
      retired.insert(old_node);
      retired.erase(new_node);
      ASSERT_EQ(topology.layer_of(old_node), -1);
      ASSERT_EQ(table_violation(topology, retired), "") << "after call " << call;
    }

    TopologyWorkspace workspace;
    common::Rng stream{0xfee1 + d};
    topology.rebuild(stream, workspace);
    common::Rng reference_stream{0xfee1 + d};
    const Topology fresh{design, reference_stream};
    ASSERT_EQ(table_violation(topology, {}), "");
    for (int layer = 0; layer < design.layers(); ++layer)
      EXPECT_EQ(topology.members(layer), fresh.members(layer));
    for (int node = 0; node < design.total_overlay_nodes; ++node) {
      ASSERT_EQ(topology.layer_of(node), fresh.layer_of(node)) << node;
      const auto a = topology.neighbors(node);
      const auto b = fresh.neighbors(node);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << node;
    }
    EXPECT_EQ(stream.next(), reference_stream.next());
  }
}

// Pins the exact members and tables a build and a fixed sequence of role
// migrations produce (L = 2, 3 and 4 of table_designs(), seeds 1-3), so a
// storage change cannot move a single draw.
TEST(Topology, MemberTablesMatchPinnedDigests) {
  const auto designs = table_designs();
  const std::uint64_t pinned[3][3] = {
      {0xb42cb7f9495f9631ull, 0xf30d2610d08ff30aull, 0xd05b6772f046cb35ull},
      {0x1b45b1f55fd7ce97ull, 0x6bd0c365ac13b1aaull, 0xd4ee97561e4422b8ull},
      {0xd53267e30d12b24aull, 0x6fb1d195e7629f6bull, 0x1e993d0964827254ull},
  };
  for (int d = 0; d < 3; ++d) {
    for (int s = 0; s < 3; ++s) {
      common::Rng rng{static_cast<std::uint64_t>(s) + 1};
      Topology topology{designs[static_cast<std::size_t>(d) + 1], rng};
      std::uint64_t digest = topology_digest(topology);
      for (int call = 0; call < 10; ++call) {
        const int old_node = random_member(topology, rng);
        topology.replace_member(old_node, random_bystander(topology, rng),
                                rng);
      }
      digest ^= topology_digest(topology) * 0x9e3779b97f4a7c15ull;
      EXPECT_EQ(digest, pinned[d][s]) << "design " << d + 1 << " seed " << s + 1
                                      << ": 0x" << std::hex << digest;
    }
  }
}

}  // namespace
}  // namespace sos::sosnet
