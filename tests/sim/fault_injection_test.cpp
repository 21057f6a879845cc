// Faults composed with the attack engine: timeline interleaving and the
// zero-fault / thread-count bit-identity guarantees.
#include <gtest/gtest.h>

#include "attack/successive_attacker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "faults/fault_injector.h"
#include "sim/monte_carlo.h"
#include "sim/timeline.h"

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

faults::FaultConfig churn() {
  faults::FaultConfig config;
  config.node_mtbf = 1.0;
  config.node_mttr = 1.0;
  config.filter_flap_mtbf = 2.0;
  config.filter_flap_mttr = 0.5;
  return config;
}

void expect_identical(const TimelineResult& a, const TimelineResult& b) {
  EXPECT_EQ(a.congestion_time, b.congestion_time);
  EXPECT_EQ(a.attack.broken_in, b.attack.broken_in);
  EXPECT_EQ(a.attack.congested_nodes, b.attack.congested_nodes);
  EXPECT_EQ(a.attack.congested_filters, b.attack.congested_filters);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].time, b.points[i].time);
    EXPECT_EQ(a.points[i].availability, b.points[i].availability);
    EXPECT_EQ(a.points[i].good_members, b.points[i].good_members);
    EXPECT_EQ(a.points[i].broken_members, b.points[i].broken_members);
    EXPECT_EQ(a.points[i].congested_members, b.points[i].congested_members);
    EXPECT_EQ(a.points[i].congested_filters, b.points[i].congested_filters);
    EXPECT_EQ(a.points[i].crashed_members, b.points[i].crashed_members);
  }
}

void expect_identical(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.p_success, b.p_success);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.mean_broken, b.mean_broken);
  EXPECT_EQ(a.mean_broken_sos, b.mean_broken_sos);
  EXPECT_EQ(a.mean_congested, b.mean_congested);
  EXPECT_EQ(a.mean_congested_sos, b.mean_congested_sos);
  EXPECT_EQ(a.mean_congested_filters, b.mean_congested_filters);
  EXPECT_EQ(a.mean_disclosed, b.mean_disclosed);
  EXPECT_EQ(a.mean_delivery_hops, b.mean_delivery_hops);
  EXPECT_EQ(a.resolved_trials, b.resolved_trials);
  EXPECT_EQ(a.wilson.lo, b.wilson.lo);
  EXPECT_EQ(a.wilson.hi, b.wilson.hi);
  EXPECT_EQ(a.stopped_by_rule, b.stopped_by_rule);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.strata.size(), b.strata.size());
  EXPECT_EQ(a.estimator_note, b.estimator_note);
}

TEST(FaultTimeline, DisabledFaultsAreBitIdenticalToThePlainEngine) {
  // All-zero rates never arm the injector regardless of the fault seed, so
  // the run must match a config that never mentions faults, field by field.
  TimelineConfig plain;
  TimelineConfig zero_rates;
  zero_rates.faults.seed ^= 0xdeadbeef;  // a seed alone enables nothing

  sosnet::SosOverlay overlay_a{small_design(), 1};
  common::Rng rng_a{2};
  const auto a = run_attack_timeline(overlay_a, campaign(), plain, rng_a);
  sosnet::SosOverlay overlay_b{small_design(), 1};
  common::Rng rng_b{2};
  const auto b = run_attack_timeline(overlay_b, campaign(), zero_rates, rng_b);
  expect_identical(a, b);
  for (const auto& point : a.points) EXPECT_EQ(point.crashed_members, 0);
}

TEST(FaultTimeline, ChurnShowsUpInTheCrashedColumn) {
  TimelineConfig config;
  config.faults = churn();
  sosnet::SosOverlay overlay{small_design(), 3};
  common::Rng rng{4};
  const auto result = run_attack_timeline(overlay, campaign(4), config, rng);
  int crashed_samples = 0;
  for (const auto& point : result.points) {
    EXPECT_GE(point.crashed_members, 0);
    EXPECT_LE(point.crashed_members, 60);
    // The attack buckets still partition the membership; crashes overlay.
    EXPECT_EQ(point.good_members + point.broken_members +
                  point.congested_members,
              60);
    if (point.crashed_members > 0) ++crashed_samples;
  }
  // mtbf = mttr = 1 keeps half the substrate down on average: churn must
  // be visible in a multi-round run.
  EXPECT_GT(crashed_samples, 0);
}

TEST(FaultTimeline, SameFaultSeedSameRun) {
  TimelineConfig config;
  config.faults = churn();
  sosnet::SosOverlay overlay_a{small_design(), 5};
  common::Rng rng_a{6};
  const auto a = run_attack_timeline(overlay_a, campaign(), config, rng_a);
  sosnet::SosOverlay overlay_b{small_design(), 5};
  common::Rng rng_b{6};
  const auto b = run_attack_timeline(overlay_b, campaign(), config, rng_b);
  expect_identical(a, b);
}

TEST(FaultMonteCarlo, SteadyStateFaultsAreThreadCountInvariant) {
  // The ext_fault_tolerance Monte Carlo path: attack then steady-state
  // faults, drawn from the per-trial stream. Results must not depend on
  // the worker count.
  const auto design = small_design();
  faults::FaultConfig config;
  config.node_mtbf = 4.0;
  config.node_mttr = 1.0;
  const attack::SuccessiveAttacker attacker{campaign()};
  const AttackFn faulty = [&attacker, config](sosnet::SosOverlay& overlay,
                                              common::Rng& rng) {
    auto outcome = attacker.execute(overlay, rng);
    faults::apply_steady_state_faults(config, overlay, rng);
    return outcome;
  };
  ThreadPool pool{8};
  const auto run_with = [&](int threads) {
    MonteCarloConfig mc;
    mc.trials = 60;
    mc.threads = threads;
    mc.pool = &pool;
    return run_monte_carlo(design, faulty, mc);
  };
  const auto one = run_with(1);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(one, run_with(threads));
  }
  // And faults genuinely bite: availability drops vs the fault-free run.
  MonteCarloConfig mc;
  mc.trials = 60;
  mc.pool = &pool;
  const auto fault_free = run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      mc);
  EXPECT_LT(one.p_success, fault_free.p_success);
}

}  // namespace
}  // namespace sos::sim
