#include "sim/timeline.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sos::sim {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

core::SuccessiveAttack campaign(int rounds = 3) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 120;
  attack.congestion_budget = 200;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = rounds;
  return attack;
}

TEST(Timeline, StartsHealthyAndTimesAreMonotone) {
  sosnet::SosOverlay overlay{small_design(), 1};
  common::Rng rng{2};
  const auto result =
      run_attack_timeline(overlay, campaign(), TimelineConfig{}, rng);
  ASSERT_GE(result.points.size(), 3u);
  EXPECT_EQ(result.points.front().time, 0.0);
  EXPECT_EQ(result.points.front().availability, 1.0);
  EXPECT_EQ(result.points.front().good_members, 60);
  double prev = -1.0;
  for (const auto& point : result.points) {
    EXPECT_GT(point.time, prev);
    prev = point.time;
    EXPECT_GE(point.availability, 0.0);
    EXPECT_LE(point.availability, 1.0);
    EXPECT_EQ(point.good_members + point.broken_members +
                  point.congested_members,
              60);
  }
}

TEST(Timeline, CoversRoundsAndCooldown) {
  sosnet::SosOverlay overlay{small_design(), 3};
  common::Rng rng{4};
  TimelineConfig config;
  config.cooldown = 2.0;
  const auto result =
      run_attack_timeline(overlay, campaign(3), config, rng);
  EXPECT_EQ(result.congestion_time,
            result.attack.rounds_executed * config.round_interval);
  EXPECT_NEAR(result.points.back().time, result.congestion_time + 2.0, 0.26);
}

TEST(Timeline, AvailabilityDropsAfterTheFlood) {
  sosnet::SosOverlay overlay{small_design(), 5};
  common::Rng rng{6};
  const auto result =
      run_attack_timeline(overlay, campaign(), TimelineConfig{}, rng);
  // Mean availability before the flood exceeds the post-flood level.
  double before = 0.0, after = 0.0;
  int n_before = 0, n_after = 0;
  for (const auto& point : result.points) {
    if (point.time < result.congestion_time) {
      before += point.availability;
      ++n_before;
    } else {
      after += point.availability;
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 0);
  ASSERT_GT(n_after, 0);
  EXPECT_GT(before / n_before, after / n_after + 0.1);
  // The flood actually landed on SOS members and/or filters.
  const auto& last = result.points.back();
  EXPECT_GT(last.congested_members + last.congested_filters, 0);
}

TEST(Timeline, RepairDefenseKeepsMoreMembersHealthyMidCampaign) {
  TimelineConfig with_repair;
  with_repair.defense.repair_rate = 0.9;
  const auto run_with = [&](const TimelineConfig& config, std::uint64_t seed) {
    sosnet::SosOverlay overlay{small_design(), seed};
    common::Rng rng{seed ^ 0xabc};
    return run_attack_timeline(overlay, campaign(4), config, rng);
  };
  // Good members at the last pre-flood sample.
  const auto good_before_flood = [](const TimelineResult& result) {
    int good = 0;
    for (const auto& point : result.points)
      if (point.time < result.congestion_time) good = point.good_members;
    return good;
  };
  int good_plain = 0, good_repaired = 0;
  for (std::uint64_t seed = 10; seed < 20; ++seed) {
    good_plain += good_before_flood(run_with(TimelineConfig{}, seed));
    good_repaired += good_before_flood(run_with(with_repair, seed));
  }
  EXPECT_GT(good_repaired, good_plain);
}

TEST(Timeline, RotationDefenseImprovesPostFloodAvailability) {
  TimelineConfig with_rotation;
  with_rotation.defense.migration_rate = 1.0;
  with_rotation.defense.proactive_rate = 0.5;
  double rotated = 0.0, plain = 0.0;
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    {
      sosnet::SosOverlay overlay{small_design(), seed};
      common::Rng rng{seed};
      const auto result =
          run_attack_timeline(overlay, campaign(4), TimelineConfig{}, rng);
      plain += result.points.back().availability;
    }
    {
      sosnet::SosOverlay overlay{small_design(), seed};
      common::Rng rng{seed};
      const auto result =
          run_attack_timeline(overlay, campaign(4), with_rotation, rng);
      rotated += result.points.back().availability;
    }
  }
  EXPECT_GT(rotated, plain);
}

}  // namespace
}  // namespace sos::sim
