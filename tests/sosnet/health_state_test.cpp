#include "sosnet/health_state.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/design.h"
#include "sosnet/sos_overlay.h"

namespace sos::sosnet {
namespace {

TEST(HealthState, StartsAllUp) {
  const HealthState state{100, 10};
  EXPECT_EQ(state.node_count(), 100);
  EXPECT_EQ(state.filter_count(), 10);
  EXPECT_FALSE(state.any_degraded());
  EXPECT_EQ(state.crashed_count(), 0);
  EXPECT_EQ(state.lossy_count(), 0);
  EXPECT_EQ(state.flapped_filter_count(), 0);
  for (int node = 0; node < 100; ++node)
    EXPECT_EQ(state.node(node), SubstrateState::kUp);
}

TEST(HealthState, CountsFollowEveryTransition) {
  HealthState state{10, 4};
  state.set_node(0, SubstrateState::kCrashed);
  state.set_node(1, SubstrateState::kLossy);
  EXPECT_EQ(state.crashed_count(), 1);
  EXPECT_EQ(state.lossy_count(), 1);
  EXPECT_TRUE(state.any_degraded());

  state.set_node(0, SubstrateState::kLossy);  // crashed -> lossy
  EXPECT_EQ(state.crashed_count(), 0);
  EXPECT_EQ(state.lossy_count(), 2);

  state.set_node(0, SubstrateState::kUp);
  state.set_node(1, SubstrateState::kUp);
  EXPECT_FALSE(state.any_degraded());

  state.set_filter_flapped(2, true);
  EXPECT_EQ(state.flapped_filter_count(), 1);
  EXPECT_TRUE(state.any_degraded());
  state.set_filter_flapped(2, true);  // idempotent write
  EXPECT_EQ(state.flapped_filter_count(), 1);
  state.set_filter_flapped(2, false);
  EXPECT_FALSE(state.any_degraded());
}

TEST(HealthState, ResetRestoresEverythingUp) {
  HealthState state{20, 5};
  state.set_node(3, SubstrateState::kCrashed);
  state.set_node(4, SubstrateState::kLossy);
  state.set_filter_flapped(1, true);
  state.reset();
  EXPECT_FALSE(state.any_degraded());
  EXPECT_EQ(state.node(3), SubstrateState::kUp);
  EXPECT_FALSE(state.filter_flapped(1));
  EXPECT_EQ(state.node_count(), 20);  // reset keeps the shape
  EXPECT_EQ(state.filter_count(), 5);
}

core::SosDesign small_design() {
  return core::SosDesign::make(500, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

TEST(SosOverlaySubstrate, CrashedNodesAreUnusableAndTallied) {
  SosOverlay overlay{small_design(), 1};
  const auto members = overlay.topology().members(0);
  overlay.substrate().set_node(members[0], SubstrateState::kCrashed);
  overlay.substrate().set_node(members[1], SubstrateState::kCrashed);
  overlay.substrate().set_node(members[2], SubstrateState::kLossy);

  EXPECT_FALSE(overlay.node_usable(members[0]));
  EXPECT_TRUE(overlay.node_usable(members[2]));  // lossy still routes
  EXPECT_EQ(overlay.substrate().crashed_count(), 2);
  // Crashes are orthogonal to the attack buckets.
  const auto tally = overlay.tally(0);
  EXPECT_EQ(tally.good + tally.broken + tally.congested, 20);
}

TEST(SosOverlaySubstrate, FlappedFilterBlocksLikeCongestion) {
  SosOverlay overlay{small_design(), 2};
  EXPECT_FALSE(overlay.filter_blocked(4));
  overlay.substrate().set_filter_flapped(4, true);
  EXPECT_TRUE(overlay.filter_blocked(4));
  EXPECT_FALSE(overlay.filter_congested(4));  // attack state untouched
  overlay.set_filter_congested(4, true);
  overlay.substrate().set_filter_flapped(4, false);
  EXPECT_TRUE(overlay.filter_blocked(4));  // still blocked by the attack
}

TEST(SosOverlaySubstrate, CrashedLayerKillsEveryWalk) {
  SosOverlay overlay{small_design(), 3};
  for (const int member : overlay.topology().members(1))
    overlay.substrate().set_node(member, SubstrateState::kCrashed);
  common::Rng rng{4};
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(overlay.route_message(rng).delivered);
}

TEST(SosOverlaySubstrate, ResetHealthClearsTheSubstrate) {
  SosOverlay overlay{small_design(), 5};
  overlay.substrate().set_node(7, SubstrateState::kCrashed);
  overlay.substrate().set_filter_flapped(0, true);
  overlay.reset_health();
  EXPECT_FALSE(overlay.substrate().any_degraded());
  common::Rng rng{6};
  EXPECT_TRUE(overlay.route_message(rng).delivered);
}

}  // namespace
}  // namespace sos::sosnet
