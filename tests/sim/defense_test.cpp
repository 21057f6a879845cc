// The defender step (`sim::defend`) through its runner: repair re-trusts
// compromised nodes, migration hands their roles to fresh recruits.
#include "sim/defense.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace sos::sim {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

core::SuccessiveAttack campaign(int congestion_budget) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 300;
  attack.congestion_budget = congestion_budget;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 4;
  return attack;
}

core::SuccessiveAttack heavy_attack() { return campaign(300); }

TEST(Repair, ZeroRateChangesNothing) {
  sosnet::SosOverlay overlay{small_design(), 1};
  common::Rng rng{2};
  const auto outcome = run_successive_attack_with_defense(
      overlay, heavy_attack(), DefenseConfig{.repair_rate = 0.0}, rng);
  EXPECT_EQ(outcome.tally.repaired_nodes, 0);
  EXPECT_EQ(outcome.tally.repaired_filters, 0);
  EXPECT_GT(outcome.attack.broken_in, 0);
}

TEST(Repair, FullRateScrubsEverythingAfterTheLastSweep) {
  sosnet::SosOverlay overlay{small_design(), 3};
  common::Rng rng{4};
  const auto outcome = run_successive_attack_with_defense(
      overlay, heavy_attack(), DefenseConfig{.repair_rate = 1.0}, rng);
  EXPECT_GT(outcome.tally.repaired_nodes, 0);
  // The final sweep (rate 1) repairs every compromised node and filter.
  EXPECT_EQ(overlay.network().good_count(), overlay.network().size());
  EXPECT_EQ(overlay.congested_filter_count(), 0);
}

TEST(Repair, PartialRateLeavesIntermediateDamage) {
  sosnet::SosOverlay overlay{small_design(), 5};
  common::Rng rng{6};
  const auto outcome = run_successive_attack_with_defense(
      overlay, heavy_attack(), DefenseConfig{.repair_rate = 0.3}, rng);
  EXPECT_GT(outcome.tally.repaired_nodes, 0);
  EXPECT_LT(overlay.network().good_count(), overlay.network().size());
}

TEST(Repair, MoreRepairMeansMoreAvailability) {
  const auto design = small_design();
  const auto availability_at = [&](double rate) {
    int delivered = 0, walks = 0;
    for (int trial = 0; trial < 30; ++trial) {
      sosnet::SosOverlay overlay{design,
                                 40 + static_cast<std::uint64_t>(trial)};
      common::Rng rng{60 + static_cast<std::uint64_t>(trial)};
      run_successive_attack_with_defense(
          overlay, heavy_attack(), DefenseConfig{.repair_rate = rate}, rng);
      for (int walk = 0; walk < 10; ++walk, ++walks)
        if (overlay.route_message(rng).delivered) ++delivered;
    }
    return static_cast<double>(delivered) / walks;
  };
  EXPECT_GT(availability_at(0.8), availability_at(0.0));
}

TEST(Migration, ZeroRateMigratesNothing) {
  sosnet::SosOverlay overlay{small_design(), 1};
  common::Rng rng{2};
  const auto outcome = run_successive_attack_with_defense(
      overlay, campaign(200), DefenseConfig{.migration_rate = 0.0}, rng);
  EXPECT_EQ(outcome.tally.migrated, 0);
}

TEST(Migration, FullRateKeepsLayersCleanOfBrokenMembers) {
  sosnet::SosOverlay overlay{small_design(), 3};
  common::Rng rng{4};
  const auto outcome = run_successive_attack_with_defense(
      overlay, campaign(200), DefenseConfig{.migration_rate = 1.0}, rng);
  EXPECT_GT(outcome.tally.migrated, 0);
  // Every broken-in node left in the network must be a retired bystander;
  // active members were all migrated after the final round (congestion
  // comes later and only congests, never breaks).
  for (int layer = 0; layer < 3; ++layer) {
    for (const int member : overlay.topology().members(layer)) {
      EXPECT_NE(overlay.network().health(member),
                overlay::NodeHealth::kBrokenIn);
    }
  }
}

TEST(Migration, MembershipStaysConsistentUnderMigration) {
  sosnet::SosOverlay overlay{small_design(), 5};
  common::Rng rng{6};
  run_successive_attack_with_defense(
      overlay, campaign(200), DefenseConfig{.migration_rate = 0.7}, rng);
  const auto& topology = overlay.topology();
  std::set<int> seen;
  for (int layer = 0; layer < 3; ++layer) {
    EXPECT_EQ(static_cast<int>(topology.members(layer).size()),
              overlay.design().layer_size(layer + 1));
    for (const int member : topology.members(layer)) {
      EXPECT_TRUE(seen.insert(member).second) << "duplicate member";
      EXPECT_EQ(topology.layer_of(member), layer);
      // Tables still have the right degree and point at the next layer.
      const auto& table = topology.neighbors(member);
      EXPECT_EQ(static_cast<int>(table.size()),
                overlay.design().degree_into(layer + 2));
      if (layer + 1 < 3) {
        for (const int neighbor : table)
          EXPECT_EQ(topology.layer_of(neighbor), layer + 1);
      }
    }
  }
  // Routing still works end to end on the reconfigured topology.
  overlay.reset_health();
  EXPECT_TRUE(overlay.route_message(rng).delivered);
}

TEST(Migration, ProactiveRotationBeatsReactiveBeatsNothing) {
  const auto design = small_design();
  const auto availability = [&](DefenseConfig config) {
    int delivered = 0, walks = 0;
    for (int trial = 0; trial < 150; ++trial) {
      sosnet::SosOverlay overlay{design,
                                 70 + static_cast<std::uint64_t>(trial)};
      common::Rng rng{90 + static_cast<std::uint64_t>(trial)};
      run_successive_attack_with_defense(overlay, campaign(200), config, rng);
      for (int walk = 0; walk < 10; ++walk, ++walks)
        if (overlay.route_message(rng).delivered) ++delivered;
    }
    return static_cast<double>(delivered) / walks;
  };
  const double none = availability({});
  const double reactive = availability({.migration_rate = 1.0});
  const double proactive =
      availability({.migration_rate = 1.0, .proactive_rate = 0.5});
  // Reactive migration restores layer health a little; proactive rotation
  // additionally invalidates the attacker's pending intelligence and is
  // decisively better.
  EXPECT_GE(reactive, none - 0.02);
  EXPECT_GT(proactive, none + 0.08);
  EXPECT_GT(proactive, reactive + 0.05);
}

TEST(Migration, ProactiveRotationWastesAttackerBreakIns) {
  // Pending identities rotated before the next round are bystanders when
  // attacked, so fewer break-ins land on actual SOS members.
  const auto design = small_design();
  const auto sos_broken = [&](double proactive_rate) {
    double total = 0.0;
    for (int trial = 0; trial < 80; ++trial) {
      sosnet::SosOverlay overlay{design,
                                 170 + static_cast<std::uint64_t>(trial)};
      common::Rng rng{190 + static_cast<std::uint64_t>(trial)};
      const auto outcome = run_successive_attack_with_defense(
          overlay, campaign(200),
          DefenseConfig{.proactive_rate = proactive_rate}, rng);
      for (const int count : outcome.attack.broken_per_layer) total += count;
    }
    return total / 80.0;
  };
  EXPECT_LT(sos_broken(0.8), sos_broken(0.0) * 0.8);
}

}  // namespace
}  // namespace sos::sim
