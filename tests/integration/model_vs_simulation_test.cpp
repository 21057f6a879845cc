// Cross-validation: the paper's average-case analytical models against the
// Monte Carlo ground truth on the concrete overlay, across a lattice of
// designs and attack intensities. This is the reproduction's core soundness
// check — if these agree, the closed-form curves in the figure benches are
// trustworthy.
#include <gtest/gtest.h>

#include <ostream>

#include "attack/one_burst_attacker.h"
#include "attack/successive_attacker.h"
#include "core/exact_models.h"
#include "core/one_burst_model.h"
#include "core/successive_model.h"
#include "sim/monte_carlo.h"

namespace sos {
namespace {

struct LatticePoint {
  int layers;
  const char* mapping;
  const char* distribution;
  int budget_t;
  int budget_c;
  int rounds;
  double prior;
};

// gtest names each lattice case after the printed parameter (ctest copies
// it into the test name), so print the fields, not the struct's bytes.
void PrintTo(const LatticePoint& point, std::ostream* out) {
  *out << "L" << point.layers << "_" << point.mapping << "_"
       << point.distribution << "_T" << point.budget_t << "_C"
       << point.budget_c << "_R" << point.rounds << "_P" << point.prior;
}

core::SosDesign make_design(const LatticePoint& point, int total, int sos) {
  return core::SosDesign::make(
      total, sos, point.layers, 10, core::MappingPolicy::parse(point.mapping),
      core::NodeDistribution::parse(point.distribution));
}

core::SuccessiveAttack make_attack(const LatticePoint& point) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = point.budget_t;
  attack.congestion_budget = point.budget_c;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = point.prior;
  attack.rounds = point.rounds;
  return attack;
}

class ModelVsSimulation : public ::testing::TestWithParam<LatticePoint> {};

TEST_P(ModelVsSimulation, AnalyticalTracksMonteCarlo) {
  const auto point = GetParam();
  const auto design = make_design(point, 10000, 100);
  const auto attack_config = make_attack(point);

  const double p_model =
      core::SuccessiveModel::p_success(design, attack_config);

  const attack::SuccessiveAttacker attacker{attack_config};
  sim::MonteCarloConfig config;
  config.trials = 120;
  config.walks_per_trial = 10;
  config.seed = 0xfeedULL + static_cast<std::uint64_t>(point.layers);
  const auto mc = sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      config);

  // Tolerance: MC standard error (~0.02) + modeling gaps documented in
  // DESIGN.md. Alarm threshold chosen so a real bookkeeping bug (which
  // typically shifts P_S by 0.2+) cannot hide.
  EXPECT_NEAR(p_model, mc.p_success, 0.10)
      << "design " << design.summary() << " attack "
      << attack_config.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, ModelVsSimulation,
    ::testing::Values(
        LatticePoint{3, "one-to-one", "even", 0, 2000, 1, 0.0},
        LatticePoint{1, "one-to-one", "even", 0, 6000, 1, 0.0},
        LatticePoint{8, "one-to-one", "even", 0, 2000, 1, 0.0},
        LatticePoint{3, "one-to-five", "even", 2000, 2000, 1, 0.0},
        LatticePoint{3, "one-to-all", "even", 2000, 2000, 1, 0.0},
        LatticePoint{3, "one-to-half", "even", 200, 2000, 1, 0.0},
        LatticePoint{3, "one-to-five", "even", 200, 2000, 3, 0.2},
        LatticePoint{4, "one-to-two", "even", 200, 2000, 3, 0.2},
        LatticePoint{4, "one-to-five", "increasing", 200, 2000, 3, 0.2},
        LatticePoint{4, "one-to-five", "decreasing", 200, 2000, 3, 0.2},
        LatticePoint{5, "one-to-five", "even", 2000, 2000, 5, 0.2},
        LatticePoint{2, "one-to-two", "even", 0, 2000, 3, 0.5},
        LatticePoint{5, "one-to-two", "increasing", 400, 4000, 4, 0.1}));

// Same cross-validation for the one-burst attacker against the one-burst
// model directly (the lattice above exercises the *successive* attacker;
// this one pins the simpler attacker implementation too).
struct OneBurstPoint {
  int layers;
  const char* mapping;
  int budget_t;
  int budget_c;
  double p_break;
};

void PrintTo(const OneBurstPoint& point, std::ostream* out) {
  *out << "L" << point.layers << "_" << point.mapping << "_T"
       << point.budget_t << "_C" << point.budget_c << "_PB" << point.p_break;
}

class OneBurstModelVsSimulation
    : public ::testing::TestWithParam<OneBurstPoint> {};

TEST_P(OneBurstModelVsSimulation, AnalyticalTracksMonteCarlo) {
  const auto point = GetParam();
  const auto design = core::SosDesign::make(
      10000, 100, point.layers, 10, core::MappingPolicy::parse(point.mapping));
  const core::OneBurstAttack attack_config{point.budget_t, point.budget_c,
                                           point.p_break};
  const double p_model =
      core::OneBurstModel::p_success(design, attack_config);

  const attack::OneBurstAttacker attacker{attack_config};
  sim::MonteCarloConfig config;
  config.trials = 120;
  config.walks_per_trial = 10;
  config.seed = 0xb0bULL + static_cast<std::uint64_t>(point.budget_t);
  const auto mc = sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      config);
  EXPECT_NEAR(p_model, mc.p_success, 0.10)
      << design.summary() << " " << attack_config.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, OneBurstModelVsSimulation,
    ::testing::Values(OneBurstPoint{1, "one-to-one", 0, 2000, 0.5},
                      OneBurstPoint{3, "one-to-one", 0, 6000, 0.5},
                      OneBurstPoint{3, "one-to-five", 200, 2000, 0.5},
                      OneBurstPoint{3, "one-to-five", 2000, 2000, 0.5},
                      OneBurstPoint{3, "one-to-all", 2000, 2000, 0.5},
                      OneBurstPoint{8, "one-to-two", 1000, 4000, 0.25},
                      OneBurstPoint{4, "one-to-five", 4000, 0, 0.75},
                      OneBurstPoint{2, "one-to-two", 0, 0, 0.5}));

TEST(ModelVsSimulation, MeanPluggingIsOptimisticAtHighMappingDamage) {
  // Known approximation artifact (the break-in counterpart of what
  // ext_exact_vs_average shows for pure congestion): P(n, s, m) is highly
  // convex in s when m is large and the mean damage sits near the
  // blocking threshold, so plugging in E[s] (Eq. 1) *overestimates* P_S —
  // here by ~0.38. This test pins both the direction and the magnitude so
  // a regression in either the model or the simulator is caught.
  const auto design = core::SosDesign::make(
      10000, 100, 5, 10, core::MappingPolicy::one_to_half());
  const core::OneBurstAttack attack_config{2000, 2000, 0.5};
  const double p_model = core::OneBurstModel::p_success(design, attack_config);

  const attack::OneBurstAttacker attacker{attack_config};
  sim::MonteCarloConfig config;
  config.trials = 200;
  config.walks_per_trial = 10;
  config.seed = 0x5a5aULL;
  const auto mc = sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      config);
  EXPECT_GT(p_model, mc.p_success + 0.15);  // optimistic, by a lot
  EXPECT_LT(p_model, mc.p_success + 0.55);  // but bounded
}

TEST(ModelVsSimulation, ExactModelMatchesMonteCarloForRandomCongestion) {
  // The exact DP makes no average-case approximation, so it should sit
  // within pure sampling noise of the simulator.
  const auto design = core::SosDesign::make(
      2000, 60, 3, 10, core::MappingPolicy::one_to_half());
  for (const int budget : {400, 800, 1200}) {
    const double exact =
        core::ExactRandomCongestionModel::p_success(design, budget);
    const attack::OneBurstAttacker attacker{
        core::OneBurstAttack{0, budget, 0.5}};
    sim::MonteCarloConfig config;
    config.trials = 250;
    config.walks_per_trial = 8;
    config.seed = 0xabcULL + static_cast<std::uint64_t>(budget);
    const auto mc = sim::run_monte_carlo(
        design,
        [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
          return attacker.execute(overlay, rng);
        },
        config);
    EXPECT_NEAR(exact, mc.p_success, 0.04) << "NC=" << budget;
  }
}

TEST(ModelVsSimulation, OriginalSosBaselineMatchesSimulation) {
  const auto design = core::SosDesign::make(
      2000, 60, 3, 10, core::MappingPolicy::one_to_all());
  for (const int budget : {1200, 1800}) {
    const double exact = core::OriginalSosModel::p_success(design, budget);
    const attack::OneBurstAttacker attacker{
        core::OneBurstAttack{0, budget, 0.5}};
    // Per-topology success is near-binary under one-to-all (either a layer
    // is wiped or nothing blocks), so the trial variance is large; use more
    // trials than the other cross-checks.
    sim::MonteCarloConfig config;
    config.trials = 600;
    config.walks_per_trial = 4;
    config.seed = 0x123ULL + static_cast<std::uint64_t>(budget);
    const auto mc = sim::run_monte_carlo(
        design,
        [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
          return attacker.execute(overlay, rng);
        },
        config);
    EXPECT_NEAR(exact, mc.p_success, 0.05) << "NC=" << budget;
  }
}

TEST(ModelVsSimulation, BrokenAndCongestedFootprintsMatchTheModel) {
  // Beyond P_S: per-quantity comparison of the attack footprint.
  const auto design = core::SosDesign::make(
      10000, 100, 3, 10, core::MappingPolicy::one_to_five());
  core::SuccessiveAttack attack_config;
  attack_config.break_in_budget = 200;
  attack_config.congestion_budget = 2000;
  attack_config.break_in_success = 0.5;
  attack_config.prior_knowledge = 0.2;
  attack_config.rounds = 3;

  const auto model = core::SuccessiveModel::evaluate(design, attack_config);
  const attack::SuccessiveAttacker attacker{attack_config};
  sim::MonteCarloConfig config;
  config.trials = 150;
  config.walks_per_trial = 2;
  config.seed = 0x77;
  const auto mc = sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      config);

  double model_broken_sos = 0.0, model_congested_sos = 0.0;
  for (std::size_t i = 0; i + 1 < model.layers.size(); ++i) {
    model_broken_sos += model.layers[i].broken;
    model_congested_sos += model.layers[i].congested;
  }
  EXPECT_NEAR(mc.mean_broken_sos, model_broken_sos,
              0.25 * model_broken_sos + 1.0);
  EXPECT_NEAR(mc.mean_congested_sos, model_congested_sos,
              0.15 * model_congested_sos + 1.0);
  EXPECT_NEAR(mc.mean_disclosed, model.disclosed_total,
              0.30 * model.disclosed_total + 2.0);
}

}  // namespace
}  // namespace sos
