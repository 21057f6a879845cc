#include "sim/monte_carlo.h"

#include <gtest/gtest.h>

#include <limits>

#include "attack/one_burst_attacker.h"
#include "attack/random_congestion_attacker.h"

namespace sos::sim {
namespace {

core::SosDesign small_design(core::MappingPolicy mapping) {
  return core::SosDesign::make(1000, 60, 3, 10, mapping);
}

AttackFn no_attack() {
  return [](sosnet::SosOverlay& overlay, common::Rng&) {
    attack::AttackOutcome outcome;
    const int layers = overlay.design().layers();
    outcome.broken_per_layer.assign(static_cast<std::size_t>(layers), 0);
    outcome.congested_per_layer.assign(static_cast<std::size_t>(layers), 0);
    return outcome;
  };
}

TEST(MonteCarlo, NoAttackGivesCertainDelivery) {
  const auto result = run_monte_carlo(
      small_design(core::MappingPolicy::one_to_one()), no_attack(),
      MonteCarloConfig{.trials = 20, .walks_per_trial = 5});
  EXPECT_EQ(result.p_success, 1.0);
  EXPECT_EQ(result.deliveries, result.walks);
  EXPECT_EQ(result.walks, 100u);
  EXPECT_EQ(result.mean_broken, 0.0);
}

TEST(MonteCarlo, DeterministicForSameSeed) {
  const auto design = small_design(core::MappingPolicy::one_to_two());
  const attack::RandomCongestionAttacker attacker{300};
  const AttackFn attack_fn = [&attacker](sosnet::SosOverlay& overlay,
                                         common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
  MonteCarloConfig config{.trials = 30, .walks_per_trial = 4, .seed = 77,
                          .threads = 1};
  const auto a = run_monte_carlo(design, attack_fn, config);
  const auto b = run_monte_carlo(design, attack_fn, config);
  EXPECT_EQ(a.p_success, b.p_success);
  EXPECT_EQ(a.deliveries, b.deliveries);
  config.seed = 78;
  const auto c = run_monte_carlo(design, attack_fn, config);
  EXPECT_NE(a.deliveries, c.deliveries);
}

TEST(MonteCarlo, ThreadCountDoesNotChangeTheEstimateMuch) {
  // Trials are deterministic per index; only the assignment to shards
  // differs, so the mean is identical and only merge order varies.
  const auto design = small_design(core::MappingPolicy::one_to_two());
  const attack::RandomCongestionAttacker attacker{300};
  const AttackFn attack_fn = [&attacker](sosnet::SosOverlay& overlay,
                                         common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
  MonteCarloConfig config{.trials = 40, .walks_per_trial = 4, .seed = 5};
  config.threads = 1;
  const auto single = run_monte_carlo(design, attack_fn, config);
  config.threads = 4;
  const auto multi = run_monte_carlo(design, attack_fn, config);
  EXPECT_EQ(single.deliveries, multi.deliveries);
  EXPECT_NEAR(single.p_success, multi.p_success, 1e-12);
}

TEST(MonteCarlo, EstimateMatchesKnownClosedForm) {
  // Pure random congestion with one-to-one mapping: P_S = (1 - NC/N)^L.
  const auto design = small_design(core::MappingPolicy::one_to_one());
  const attack::RandomCongestionAttacker attacker{200};  // 20% of 1000
  const auto result = run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      MonteCarloConfig{.trials = 300, .walks_per_trial = 10, .seed = 9});
  const double expected = 0.8 * 0.8 * 0.8;
  EXPECT_NEAR(result.p_success, expected, 0.03);
  EXPECT_TRUE(result.ci.contains(expected))
      << "[" << result.ci.lo << ", " << result.ci.hi << "] vs " << expected;
}

TEST(MonteCarlo, FootprintStatsAreFilledIn) {
  const auto design = small_design(core::MappingPolicy::one_to_five());
  const attack::OneBurstAttacker attacker{core::OneBurstAttack{200, 300, 0.5}};
  const auto result = run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      MonteCarloConfig{.trials = 50, .walks_per_trial = 5, .seed = 11});
  EXPECT_NEAR(result.mean_broken, 100.0, 10.0);   // P_B * N_T
  EXPECT_NEAR(result.mean_broken_sos, 6.0, 2.0);  // P_B * NT * n/N
  // The full budget is spent, split between overlay nodes and disclosed
  // filters.
  EXPECT_NEAR(result.mean_congested + result.mean_congested_filters, 300.0,
              1e-9);
  EXPECT_GT(result.mean_disclosed, 0.0);
  EXPECT_GE(result.mean_congested_sos, 0.0);
  EXPECT_GT(result.mean_delivery_hops, 0.0);
}

TEST(MonteCarlo, RejectsBadConfig) {
  const auto design = small_design(core::MappingPolicy::one_to_one());
  EXPECT_THROW(run_monte_carlo(design, no_attack(),
                               MonteCarloConfig{.trials = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      run_monte_carlo(design, no_attack(),
                      MonteCarloConfig{.trials = 1, .walks_per_trial = 0}),
      std::invalid_argument);
  // A list's trial count is checked before anything is allocated.
  const int half = std::numeric_limits<int>::max() / 2 + 1;
  EXPECT_THROW(run_monte_carlo({{design, no_attack(), {.trials = half}},
                                {design, no_attack(), {.trials = half}}}),
               std::invalid_argument);
}

TEST(MonteCarlo, ChordModeWorksEndToEnd) {
  const auto design = small_design(core::MappingPolicy::one_to_all());
  MonteCarloConfig config{.trials = 5, .walks_per_trial = 4, .seed = 13};
  config.route_via_chord = true;
  const auto result = run_monte_carlo(design, no_attack(), config);
  EXPECT_EQ(result.p_success, 1.0);
}

}  // namespace
}  // namespace sos::sim
