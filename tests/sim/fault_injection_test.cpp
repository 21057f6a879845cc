// Steady-state faults composed with the attack engine: the Monte Carlo
// results are thread-count invariant and faults lower availability.
#include <gtest/gtest.h>

#include "attack/successive_attacker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "faults/fault_injector.h"
#include "sim/monte_carlo.h"

namespace sos::sim {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

core::SuccessiveAttack campaign() {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 120;
  attack.congestion_budget = 200;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  return attack;
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
