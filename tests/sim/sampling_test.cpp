// sim::sampling — sequential stopping and stratified estimators:
// determinism contracts (a stopped run is bit-identical to a fixed run of the
// resolved length at any thread count), stopping-rule properties, the trial
// cap, the post-attack hook, the exact servlet-compromise law, and the
// degenerate-case tripwire (zero-variance strata must produce a diagnostic
// note, never a NaN).
#include "sim/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attack/one_burst_attacker.h"
#include "common/stats.h"
#include "sim/monte_carlo.h"
#include "common/thread_pool.h"

namespace sos::sim::sampling {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_all());
}

AttackFn one_burst_fn(const core::OneBurstAttack& attack) {
  return [attacker = attack::OneBurstAttacker{attack}](
             sosnet::SosOverlay& overlay, common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
}

/// Every field a fixed-trial reduction fills (the stop metadata —
/// stopped_by_rule / capped / estimator_note — is the sequential run's own).
void expect_same_estimate(const MonteCarloResult& a,
                          const MonteCarloResult& b) {
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
}

TEST(SamplingSequential, BitIdenticalToFixedRunOfResolvedLength) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 4;
  config.seed = 0xabc1ULL;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.08;
  rule.initial_trials = 16;
  rule.max_trials = 1 << 12;

  const auto sequential = run_sequential(design, one_burst_fn(attack),
                                         config, rule);
  ASSERT_TRUE(sequential.stopped_by_rule || sequential.capped);

  MonteCarloConfig fixed = config;
  fixed.trials = static_cast<int>(sequential.resolved_trials);
  const auto reference = run_monte_carlo(design, one_burst_fn(attack), fixed);
  expect_same_estimate(sequential, reference);

  // Thread count must never change any field of the stopped run.
  for (const int threads : {2, 8}) {
    ThreadPool pool{threads};
    MonteCarloConfig multi = config;
    multi.threads = threads;
    multi.pool = &pool;
    const auto parallel = run_sequential(design, one_burst_fn(attack),
                                         multi, rule);
    EXPECT_EQ(parallel.stopped_by_rule, sequential.stopped_by_rule);
    EXPECT_EQ(parallel.capped, sequential.capped);
    expect_same_estimate(parallel, sequential);
  }
}

TEST(SamplingSequential, StoppedRunNeverReportsWiderIntervalThanTarget) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    for (const double target : {0.10, 0.05}) {
      MonteCarloConfig config;
      config.walks_per_trial = 4;
      config.seed = seed;
      config.threads = 1;
      StoppingRule rule;
      rule.ci_half_width = target;
      rule.initial_trials = 8;
      rule.max_trials = 1 << 14;
      const auto result = run_sequential(design, one_burst_fn(attack),
                                         config, rule);
      if (result.stopped_by_rule) {
        EXPECT_LE(0.5 * result.wilson.width(), target)
            << "seed=" << seed << " target=" << target;
      }
    }
  }
}

TEST(SamplingSequential, UnreachableTargetCapsWithDiagnostic) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 1e-6;  // unreachable at this cap
  rule.initial_trials = 8;
  rule.max_trials = 64;
  const auto result = run_sequential(design, one_burst_fn(attack), config,
                                     rule);
  EXPECT_FALSE(result.stopped_by_rule);
  EXPECT_TRUE(result.capped);
  EXPECT_EQ(result.resolved_trials, 64u);
  EXPECT_NE(result.estimator_note.find("max_trials"), std::string::npos);
}

TEST(SamplingSequential, FixedTrialResultKeepsEstimatorFieldsInert) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  MonteCarloConfig config;
  config.trials = 40;
  config.walks_per_trial = 3;
  config.threads = 1;
  const auto result = run_monte_carlo(design, one_burst_fn(attack), config);
  EXPECT_EQ(result.resolved_trials, 40u);
  const auto wilson =
      common::wilson_interval(result.deliveries, result.walks);
  EXPECT_EQ(result.wilson.lo, wilson.lo);
  EXPECT_EQ(result.wilson.hi, wilson.hi);
  EXPECT_FALSE(result.stopped_by_rule);
  EXPECT_FALSE(result.capped);
  EXPECT_TRUE(result.strata.empty());
  EXPECT_TRUE(result.estimator_note.empty());
}

TEST(SamplingLaw, ServletPmfIsAProperDistributionWithExactMean) {
  // N = 1000, m = 20, N_T = 300, p = 0.5: E[K] = p * m * N_T / N = 3.
  const auto pmf = servlet_compromise_pmf(1000, 20, 300, 0.5);
  ASSERT_EQ(pmf.size(), 21u);
  double total = 0.0, mean = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    EXPECT_GE(pmf[k], 0.0);
    total += pmf[k];
    mean += static_cast<double>(k) * pmf[k];
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(mean, 3.0, 1e-9);
}

TEST(SamplingLaw, ServletPmfEdgeCases) {
  // p = 0: all mass at K = 0. Budget = N: every servlet attempted,
  // K ~ Binomial(m, p).
  const auto none = servlet_compromise_pmf(100, 10, 40, 0.0);
  EXPECT_NEAR(none[0], 1.0, 1e-12);
  const auto all = servlet_compromise_pmf(100, 10, 100, 0.3);
  const auto binom = binomial_pmf(10, 0.3);
  for (std::size_t k = 0; k < all.size(); ++k)
    EXPECT_NEAR(all[k], binom[k], 1e-12) << "k=" << k;
}

TEST(SamplingLaw, ConditionedAttackHitsTheDictatedServletCounts) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 0, 0.5};
  const attack::OneBurstAttacker attacker{attack};
  sosnet::SosOverlay overlay{design, 17};
  common::Rng rng{42};
  const int last = design.layers() - 1;
  const std::vector<std::pair<int, int>> cases{{5, 2}, {8, 8}, {3, 0}};
  for (const auto& [victims, successes] : cases) {
    overlay.reset_health();
    const auto outcome =
        attacker.execute_conditioned(overlay, rng, victims, successes);
    EXPECT_EQ(outcome.broken_per_layer[static_cast<std::size_t>(last)],
              successes)
        << "victims=" << victims;
  }
  EXPECT_THROW(attacker.execute_conditioned(overlay, rng, 3, 4),
               std::invalid_argument);
  EXPECT_THROW(attacker.execute_conditioned(overlay, rng, 9999, 0),
               std::invalid_argument);
}

TEST(SamplingLaw, ConditionedAttackMapsNonServletPicksExactly) {
  // P_B = 1: every attempt on a non-servlet succeeds, so a pick mapped onto
  // a servlet (or onto a node picked twice) shows up in the counts exactly,
  // not by chance.
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 0, 1.0};
  const attack::OneBurstAttacker attacker{attack};
  sosnet::SosOverlay overlay{design, 17};
  common::Rng rng{43};
  const int last = design.layers() - 1;
  const int m = design.layer_sizes.back();
  for (int victims = 0; victims <= m; ++victims) {
    for (int successes = 0; successes <= victims; ++successes) {
      overlay.reset_health();
      const auto outcome =
          attacker.execute_conditioned(overlay, rng, victims, successes);
      ASSERT_EQ(outcome.broken_per_layer[static_cast<std::size_t>(last)],
                successes)
          << "victims=" << victims << " successes=" << successes;
      ASSERT_EQ(outcome.broken_in,
                successes + attack.break_in_budget - victims)
          << "victims=" << victims << " successes=" << successes;
    }
  }
}

TEST(SamplingLaw, StratumBoundariesCoverTheSupport) {
  const auto pmf = servlet_compromise_pmf(1000, 20, 300, 0.5);
  const auto edges = stratum_boundaries(pmf, 6);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges.front(), 0);
  EXPECT_EQ(edges.back(), static_cast<int>(pmf.size()));
  for (std::size_t i = 0; i + 1 < edges.size(); ++i)
    EXPECT_LT(edges[i], edges[i + 1]);
  // Degenerate pmf: a single-point mass yields the trivial two-edge cover.
  EXPECT_EQ(stratum_boundaries({1.0}, 4), (std::vector<int>{0, 1}));
}

TEST(SamplingLaw, TrialsForWilsonHalfWidthInvertsTheInterval) {
  for (const double p : {0.5, 0.05, 1e-3}) {
    for (const double h : {0.02, 0.005}) {
      const double n = trials_for_wilson_half_width(p, h);
      // Quadratic-regime sanity: n within a few percent of z^2 p(1-p)/h^2
      // whenever that classic approximation is itself valid (n * p >> 1).
      if (n * p > 50.0) {
        const double classic = 1.96 * 1.96 * p * (1.0 - p) / (h * h);
        EXPECT_NEAR(n, classic, 0.1 * classic) << "p=" << p << " h=" << h;
      }
      EXPECT_GT(trials_for_wilson_half_width(p, h / 2), n);
    }
  }
}

TEST(SamplingStratified, AgreesWithTheNaiveEstimatorAndIsThreadStable) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 4;
  config.seed = 0x57ULL;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.02;
  rule.initial_trials = 64;
  rule.max_trials = 1 << 12;

  const auto stratified = run_stratified(design, attack, config, rule);
  EXPECT_TRUE(std::isfinite(stratified.p_success));
  EXPECT_GT(stratified.resolved_trials, 0u);
  EXPECT_FALSE(stratified.strata.empty());

  MonteCarloConfig naive = config;
  naive.trials = 3000;
  const auto reference = run_monte_carlo(design, one_burst_fn(attack), naive);
  // Cross-estimator agreement within the union of both 95% intervals,
  // stretched 2x for the 1-in-20 tail.
  const double slack =
      2.0 * (0.5 * stratified.ci.width() + 0.5 * reference.ci.width());
  EXPECT_NEAR(stratified.p_success, reference.p_success, slack + 1e-12);

  for (const int threads : {2, 8}) {
    ThreadPool pool{threads};
    MonteCarloConfig multi = config;
    multi.threads = threads;
    multi.pool = &pool;
    const auto parallel = run_stratified(design, attack, multi, rule);
    EXPECT_EQ(parallel.p_success, stratified.p_success);
    EXPECT_EQ(parallel.ci.lo, stratified.ci.lo);
    EXPECT_EQ(parallel.ci.hi, stratified.ci.hi);
    EXPECT_EQ(parallel.resolved_trials, stratified.resolved_trials);
    ASSERT_EQ(parallel.strata.size(), stratified.strata.size());
    for (std::size_t h = 0; h < parallel.strata.size(); ++h) {
      EXPECT_EQ(parallel.strata[h].trials, stratified.strata[h].trials);
      EXPECT_EQ(parallel.strata[h].p_hat, stratified.strata[h].p_hat);
    }
  }
}

TEST(SamplingStratified, PilotPassHonoursTheTrialCap) {
  // Ten strata piloted with 32 trials each would need 320 trials; every cap
  // below that must still bound the resolved count, pilot pass included.
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.threads = 1;
  for (const int cap : {4, 20, 64}) {
    // A relative 1e-6 target is unreachable, so every run ends at the cap.
    StoppingRule rule;
    rule.relative = true;
    rule.ci_half_width = 1e-6;
    rule.initial_trials = 2;
    rule.max_trials = cap;
    const auto result = run_stratified(design, attack, config, rule);
    EXPECT_TRUE(result.capped) << "cap=" << cap;
    EXPECT_EQ(result.resolved_trials, static_cast<std::uint64_t>(cap));
    std::uint64_t per_stratum_total = 0;
    for (const auto& tally : result.strata) {
      EXPECT_GE(tally.trials, 2u) << "cap=" << cap;
      per_stratum_total += tally.trials;
    }
    EXPECT_EQ(per_stratum_total, result.resolved_trials) << "cap=" << cap;
  }
}

TEST(SamplingStratified, PostAttackHookRunsOncePerTrialOnEveryWorker) {
  // A hook that flaps every filter after the conditioned attack: no walk can
  // reach the target, so P_S is exactly 0 where the hook-free run delivers.
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  StoppingRule rule;
  rule.ci_half_width = 0.05;
  rule.initial_trials = 16;
  rule.max_trials = 256;
  ThreadPool pool{4};
  const auto run = [&](int threads, std::atomic<int>* calls) {
    MonteCarloConfig config;
    config.walks_per_trial = 4;
    config.seed = 0x400cULL;
    config.threads = threads;
    config.pool = &pool;
    PostAttackFn hook;
    if (calls != nullptr) {
      hook = [calls](sosnet::SosOverlay& overlay, common::Rng&) {
        calls->fetch_add(1);
        for (int filter = 0; filter < overlay.filter_count(); ++filter)
          overlay.substrate().set_filter_flapped(filter, true);
      };
    }
    return run_stratified(design, attack, config, rule, {}, hook);
  };

  std::atomic<int> inline_calls{0};
  const auto hooked = run(1, &inline_calls);
  EXPECT_EQ(static_cast<std::uint64_t>(inline_calls.load()),
            hooked.resolved_trials);
  EXPECT_EQ(hooked.p_success, 0.0);
  EXPECT_EQ(hooked.deliveries, 0u);
  EXPECT_GT(run(1, nullptr).p_success, 0.0);

  std::atomic<int> pool_calls{0};
  const auto pooled = run(4, &pool_calls);
  EXPECT_EQ(pool_calls.load(), inline_calls.load());
  EXPECT_EQ(pooled.p_success, hooked.p_success);
  EXPECT_EQ(pooled.ci.lo, hooked.ci.lo);
  EXPECT_EQ(pooled.ci.hi, hooked.ci.hi);
  EXPECT_EQ(pooled.resolved_trials, hooked.resolved_trials);
  EXPECT_EQ(pooled.mean_broken, hooked.mean_broken);
  EXPECT_EQ(pooled.mean_congested, hooked.mean_congested);
  EXPECT_EQ(pooled.mean_disclosed, hooked.mean_disclosed);
  ASSERT_EQ(pooled.strata.size(), hooked.strata.size());
  for (std::size_t h = 0; h < pooled.strata.size(); ++h)
    EXPECT_EQ(pooled.strata[h].trials, hooked.strata[h].trials);
}

TEST(SamplingStratified, RoundRunsStrataConcurrently) {
  // A round runs every stratum's new trials in one pass, so a pilot of 2
  // trials per stratum still puts 3 trials in flight on a 4-worker pool; a
  // pass per stratum would hold at most 2. The hook waits (with a bound) for
  // that third trial; after one wait times out it stops waiting, so a
  // failing run stays short.
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.seed = 0x3cULL;
  config.threads = 4;
  ThreadPool pool{4};
  config.pool = &pool;
  StoppingRule rule;
  rule.initial_trials = 2;
  rule.max_trials = 64;
  StratifiedOptions options;
  options.strata = 6;
  options.pilot_per_stratum = 2;

  std::mutex mutex;
  std::condition_variable changed;
  int in_flight = 0;
  int peak = 0;
  bool stop_waiting = false;
  const PostAttackFn hook = [&](sosnet::SosOverlay&, common::Rng&) {
    std::unique_lock<std::mutex> lock(mutex);
    peak = std::max(peak, ++in_flight);
    changed.notify_all();
    if (!stop_waiting && peak < 3 &&
        !changed.wait_for(lock, std::chrono::seconds(5), [&] {
          return peak >= 3 || stop_waiting;
        })) {
      stop_waiting = true;
      changed.notify_all();
    }
    --in_flight;
  };
  const auto result =
      run_stratified(design, attack, config, rule, options, hook);
  ASSERT_GE(result.strata.size(), 2u);
  EXPECT_GE(peak, 3);
  EXPECT_FALSE(stop_waiting);
}

TEST(SamplingTripwires, ZeroVarianceStrataProduceANoteNotANaN) {
  // Congestion so heavy nothing ever delivers: every stratum's conditional
  // variance is zero. The estimator must report that and stay finite.
  const auto design = small_design();
  const core::OneBurstAttack attack{400, 900, 0.9};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.05;
  rule.initial_trials = 32;
  rule.max_trials = 256;
  const auto result = run_stratified(design, attack, config, rule);
  EXPECT_TRUE(std::isfinite(result.p_success));
  EXPECT_TRUE(std::isfinite(result.ci.lo));
  EXPECT_TRUE(std::isfinite(result.ci.hi));
  EXPECT_NE(result.estimator_note.find("zero"), std::string::npos)
      << result.estimator_note;
  for (const auto& tally : result.strata) {
    EXPECT_TRUE(std::isfinite(tally.p_hat));
    EXPECT_TRUE(std::isfinite(tally.stddev));
  }
}

TEST(SamplingRules, StoppingRuleValidation) {
  StoppingRule rule;
  EXPECT_NO_THROW(rule.validate());
  rule.ci_half_width = 0.0;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.initial_trials = 1;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.max_trials = 4;
  rule.initial_trials = 8;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.min_events = 0;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sos::sim::sampling
