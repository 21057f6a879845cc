// Defense dynamics at the parameter extremes: full-rate repair and
// rotation stay sane, and zero-rate defenses are bit-identical to the
// plain successive attack (not just "no repairs happened").
#include <gtest/gtest.h>

#include "attack/successive_attacker.h"
#include "common/rng.h"
#include "sim/defense.h"
#include "sim/timeline.h"

namespace sos::sim {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

core::SuccessiveAttack heavy_attack() {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 300;
  attack.congestion_budget = 300;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 4;
  return attack;
}

void expect_same_attack(const attack::AttackOutcome& a,
                        const attack::AttackOutcome& b) {
  EXPECT_EQ(a.break_in_attempts, b.break_in_attempts);
  EXPECT_EQ(a.broken_in, b.broken_in);
  EXPECT_EQ(a.congested_nodes, b.congested_nodes);
  EXPECT_EQ(a.congested_filters, b.congested_filters);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.disclosed_at_congestion, b.disclosed_at_congestion);
  EXPECT_EQ(a.broken_per_layer, b.broken_per_layer);
  EXPECT_EQ(a.congested_per_layer, b.congested_per_layer);
}

void expect_same_health(const sosnet::SosOverlay& a,
                        const sosnet::SosOverlay& b) {
  ASSERT_EQ(a.network().size(), b.network().size());
  for (int node = 0; node < a.network().size(); ++node)
    EXPECT_EQ(a.network().health(node), b.network().health(node));
  for (int filter = 0; filter < a.filter_count(); ++filter)
    EXPECT_EQ(a.filter_congested(filter), b.filter_congested(filter));
}

TEST(DefenseExtremes, ZeroRateRepairIsBitIdenticalToThePlainAttack) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sosnet::SosOverlay plain{small_design(), seed};
    common::Rng plain_rng{seed ^ 0x9e37};
    const attack::SuccessiveAttacker attacker{heavy_attack()};
    const auto plain_outcome = attacker.execute(plain, plain_rng);

    sosnet::SosOverlay defended{small_design(), seed};
    common::Rng defended_rng{seed ^ 0x9e37};
    const auto repaired = run_successive_attack_with_defense(
        defended, heavy_attack(), DefenseConfig{.repair_rate = 0.0},
        defended_rng);

    EXPECT_EQ(repaired.tally.repaired_nodes, 0);
    EXPECT_EQ(repaired.tally.repaired_filters, 0);
    expect_same_attack(plain_outcome, repaired.attack);
    expect_same_health(plain, defended);
    // The RNG streams stayed in lockstep too.
    EXPECT_EQ(plain_rng.next_double(), defended_rng.next_double());
  }
}

TEST(DefenseExtremes, ZeroRateMigrationIsBitIdenticalToThePlainAttack) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    sosnet::SosOverlay plain{small_design(), seed};
    common::Rng plain_rng{seed ^ 0x517c};
    const attack::SuccessiveAttacker attacker{heavy_attack()};
    const auto plain_outcome = attacker.execute(plain, plain_rng);

    sosnet::SosOverlay defended{small_design(), seed};
    common::Rng defended_rng{seed ^ 0x517c};
    const auto migrated = run_successive_attack_with_defense(
        defended, heavy_attack(), DefenseConfig{}, defended_rng);

    EXPECT_EQ(migrated.tally.migrated, 0);
    expect_same_attack(plain_outcome, migrated.attack);
    expect_same_health(plain, defended);
    EXPECT_EQ(plain_rng.next_double(), defended_rng.next_double());
  }
}

TEST(DefenseExtremes, FullRepairRateHealsEverythingEachRound) {
  sosnet::SosOverlay overlay{small_design(), 21};
  common::Rng rng{22};
  const auto outcome = run_successive_attack_with_defense(
      overlay, heavy_attack(), DefenseConfig{.repair_rate = 1.0}, rng);
  EXPECT_GT(outcome.tally.repaired_nodes, 0);
  EXPECT_EQ(overlay.network().good_count(), overlay.network().size());
  EXPECT_EQ(overlay.congested_filter_count(), 0);
}

TEST(DefenseExtremes, FullRepairTimelineNeverShowsBrokenSamples) {
  TimelineConfig config;
  config.defense.repair_rate = 1.0;
  sosnet::SosOverlay overlay{small_design(), 23};
  common::Rng rng{24};
  const auto result = run_attack_timeline(overlay, heavy_attack(), config, rng);
  // Every pre-flood sample lands after an exhaustive repair sweep.
  for (const auto& point : result.points)
    if (point.time < result.congestion_time) {
      EXPECT_EQ(point.broken_members, 0) << "t=" << point.time;
      EXPECT_EQ(point.congested_members, 0) << "t=" << point.time;
    }
}

TEST(DefenseExtremes, FullProactiveRotationChurnsEveryRole) {
  sosnet::SosOverlay overlay{small_design(), 25};
  common::Rng rng{26};
  const auto outcome = run_successive_attack_with_defense(
      overlay, heavy_attack(),
      DefenseConfig{.migration_rate = 1.0, .proactive_rate = 1.0}, rng);
  // Every member (60) is rotated after every round, so no member the
  // attacker ever broke into still serves when the flood (which only
  // congests) is over.
  EXPECT_EQ(outcome.attack.rounds_executed, heavy_attack().rounds);
  EXPECT_EQ(outcome.tally.migrated, 60 * outcome.attack.rounds_executed);
  for (int layer = 0; layer < overlay.design().layers(); ++layer)
    EXPECT_EQ(overlay.tally(layer).broken, 0) << "layer " << layer + 1;
}

TEST(DefenseExtremes, AllDefensesComposeOnTheTimeline) {
  TimelineConfig config;
  config.defense = {
      .repair_rate = 1.0, .migration_rate = 1.0, .proactive_rate = 1.0};
  sosnet::SosOverlay overlay{small_design(), 27};
  common::Rng rng{28};
  const auto result = run_attack_timeline(overlay, heavy_attack(), config, rng);
  ASSERT_FALSE(result.points.empty());
  for (const auto& point : result.points) {
    EXPECT_GE(point.availability, 0.0);
    EXPECT_LE(point.availability, 1.0);
    EXPECT_EQ(point.good_members + point.broken_members +
                  point.congested_members,
              60);
  }
}

}  // namespace
}  // namespace sos::sim
