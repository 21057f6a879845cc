// The law of SosOverlay::migrate_member's recruit: uniform over the usable
// bystanders (attack-good, not crashed, not serving), whichever of its two
// draws settles it — the bounded rejection loop or the exact scan behind it.
// Unusable bystanders sit in contiguous id runs, so a draw that walks from
// a random start to the next candidate would visibly favour the node just
// past each run.
#include "sosnet/sos_overlay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace sos::sosnet {
namespace {

constexpr int kNodes = 200;

SosOverlay small_overlay() {
  return SosOverlay{core::SosDesign::make(kNodes, 30, 3, 5,
                                          core::MappingPolicy::one_to_two()),
                    0x4ec2};
}

/// Sets the attack state of nodes [begin, end).
void set_health(SosOverlay& overlay, int begin, int end,
                overlay::NodeHealth health) {
  for (int node = begin; node < end; ++node)
    overlay.network().set_health(node, health);
}

/// Crashes nodes [begin, end) on the substrate.
void crash(SosOverlay& overlay, int begin, int end) {
  for (int node = begin; node < end; ++node)
    overlay.substrate().set_node(node, SubstrateState::kCrashed);
}

bool candidate(const SosOverlay& overlay, int node) {
  return !overlay.topology().is_sos_member(node) && overlay.node_usable(node);
}

/// Recruits `draws` times into the role of the first layer-1 member, undoing
/// every migration, and counts how often each node was recruited.
std::vector<int> recruit_counts(SosOverlay& overlay, int draws,
                                common::Rng& rng) {
  const int member = overlay.topology().members(0).front();
  std::vector<int> counts(kNodes, 0);
  for (int draw = 0; draw < draws; ++draw) {
    const int recruit = overlay.migrate_member(member, rng);
    if (recruit < 0) {
      ADD_FAILURE() << "no recruit at draw " << draw;
      break;
    }
    ++counts[static_cast<std::size_t>(recruit)];
    overlay.mutable_topology().replace_member(recruit, member, rng);
  }
  return counts;
}

/// Upper tail of the chi-square law with `dof` degrees of freedom, by the
/// Wilson-Hilferty cube-root normal approximation (within ~15% of the exact
/// tail at p = 1e-3 even at dof = 2, far closer for large dof).
double chi_square_p_value(double statistic, int dof) {
  const double k = dof;
  const double z = (std::cbrt(statistic / k) - (1.0 - 2.0 / (9.0 * k))) /
                   std::sqrt(2.0 / (9.0 * k));
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

/// No recruit outside the candidates, and a uniform spread over them.
void expect_uniform_over_candidates(const SosOverlay& overlay,
                                    const std::vector<int>& counts,
                                    int draws) {
  std::vector<int> hits;
  for (int node = 0; node < kNodes; ++node) {
    if (candidate(overlay, node))
      hits.push_back(counts[static_cast<std::size_t>(node)]);
    else
      EXPECT_EQ(counts[static_cast<std::size_t>(node)], 0) << "node " << node;
  }
  ASSERT_GE(hits.size(), 2u);
  const double expected = static_cast<double>(draws) / hits.size();
  double statistic = 0.0;
  for (const int hit : hits)
    statistic += (hit - expected) * (hit - expected) / expected;
  const int dof = static_cast<int>(hits.size()) - 1;
  EXPECT_GT(chi_square_p_value(statistic, dof), 1e-3)
      << "chi-square " << statistic << " over " << dof << " dof";
}

TEST(RecruitLaw, UniformOverUsableBystanders) {
  SosOverlay overlay = small_overlay();
  set_health(overlay, 20, 50, overlay::NodeHealth::kBrokenIn);
  set_health(overlay, 80, 110, overlay::NodeHealth::kCongested);
  crash(overlay, 140, 170);
  common::Rng rng{1};
  constexpr int kDraws = 16000;
  const auto counts = recruit_counts(overlay, kDraws, rng);
  expect_uniform_over_candidates(overlay, counts, kDraws);
}

TEST(RecruitLaw, ScarceCandidatesStayUniformThroughTheScan) {
  // 3 usable bystanders of 200: all 64 uniform tries miss in
  // (1 - 3/200)^64 ~ 38% of the calls, so the exact scan picks often.
  SosOverlay overlay = small_overlay();
  std::vector<int> bystanders;
  for (int node = 0; node < kNodes; ++node)
    if (!overlay.topology().is_sos_member(node)) bystanders.push_back(node);
  set_health(overlay, 0, 70, overlay::NodeHealth::kBrokenIn);
  set_health(overlay, 70, 140, overlay::NodeHealth::kCongested);
  crash(overlay, 140, kNodes);
  for (const std::size_t pick : {10u, 80u, 150u}) {
    const int node = bystanders[pick];
    overlay.network().set_health(node, overlay::NodeHealth::kGood);
    overlay.substrate().set_node(node, SubstrateState::kUp);
  }
  common::Rng rng{2};
  constexpr int kDraws = 6000;
  const auto counts = recruit_counts(overlay, kDraws, rng);
  expect_uniform_over_candidates(overlay, counts, kDraws);
}

TEST(RecruitLaw, NoUsableBystanderLeavesTheMembersUnchanged) {
  SosOverlay overlay = small_overlay();
  set_health(overlay, 0, 100, overlay::NodeHealth::kBrokenIn);
  set_health(overlay, 100, 150, overlay::NodeHealth::kCongested);
  crash(overlay, 150, kNodes);
  std::vector<std::vector<int>> before;
  for (int layer = 0; layer < overlay.design().layers(); ++layer)
    before.push_back(overlay.topology().members(layer));
  common::Rng rng{3};
  for (const auto& members : before)
    for (const int member : members)
      EXPECT_EQ(overlay.migrate_member(member, rng), -1) << member;
  for (int layer = 0; layer < overlay.design().layers(); ++layer)
    EXPECT_EQ(overlay.topology().members(layer),
              before[static_cast<std::size_t>(layer)]);
}

}  // namespace
}  // namespace sos::sosnet
