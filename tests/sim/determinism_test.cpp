// Regression: the Monte Carlo result must be bit-identical for every thread
// count at a fixed seed — per-trial streams are derived from (seed, trial)
// alone and the reduction runs in fixed trial order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "attack/one_burst_attacker.h"
#include "attack/successive_attacker.h"
#include "sim/monte_carlo.h"
#include "common/thread_pool.h"

namespace sos::sim {
namespace {

core::SosDesign small_design(core::MappingPolicy mapping) {
  return core::SosDesign::make(1000, 60, 3, 10, mapping);
}

AttackFn successive_fn() {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 100;
  attack.congestion_budget = 300;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  return [attacker = attack::SuccessiveAttacker{attack}](
             sosnet::SosOverlay& overlay, common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
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

TEST(MonteCarloDeterminism, ThreadCountNeverChangesAnyResultField) {
  const auto design = small_design(core::MappingPolicy::one_to_two());
  const AttackFn attack_fn = successive_fn();

  MonteCarloConfig config{.trials = 25, .walks_per_trial = 6, .seed = 0xfeedULL,
                          .threads = 1};
  const auto single = run_monte_carlo(design, attack_fn, config);

  // The shared pool is sized to the machine (possibly 1 worker), so the
  // multi-thread runs bring their own pools.
  for (const int threads : {2, 8}) {
    ThreadPool pool{threads};
    MonteCarloConfig multi = config;
    multi.threads = threads;
    multi.pool = &pool;
    const auto result = run_monte_carlo(design, attack_fn, multi);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(single, result);
  }
}

TEST(MonteCarloDeterminism, RepeatedRunsReuseWorkerStateWithoutDrift) {
  // The persistent per-worker overlay must give the same answer on the 1st
  // and the Nth run of the same configuration.
  const auto design = small_design(core::MappingPolicy::one_to_five());
  const AttackFn attack_fn = successive_fn();
  ThreadPool pool{4};
  MonteCarloConfig config{.trials = 12, .walks_per_trial = 4, .seed = 3,
                          .threads = 4};
  config.pool = &pool;
  const auto first = run_monte_carlo(design, attack_fn, config);
  for (int repeat = 0; repeat < 3; ++repeat)
    expect_identical(first, run_monte_carlo(design, attack_fn, config));
}

TEST(MonteCarloDeterminism, PointListMatchesStandaloneRunsAtEveryPoolSize) {
  // Different designs, seeds and trial counts in one pass; the 2-trial
  // point has fewer trials than the larger pools have workers.
  const AttackFn attack_fn = successive_fn();
  const std::vector<MonteCarloPoint> points{
      {small_design(core::MappingPolicy::one_to_one()), attack_fn,
       {.trials = 10, .walks_per_trial = 5, .seed = 99}},
      {small_design(core::MappingPolicy::one_to_all()), attack_fn,
       {.trials = 2, .walks_per_trial = 3, .seed = 7}},
      {small_design(core::MappingPolicy::one_to_two()), attack_fn,
       {.trials = 17, .walks_per_trial = 4, .seed = 99}},
  };
  std::vector<MonteCarloResult> standalone;
  for (MonteCarloPoint point : points) {
    point.config.threads = 1;
    standalone.push_back(
        run_monte_carlo(point.design, point.attack, point.config));
  }

  for (const int size : {1, 3, 8}) {
    ThreadPool pool{size};
    const auto results = run_monte_carlo(points, &pool);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      SCOPED_TRACE("pool=" + std::to_string(size) +
                   " point=" + std::to_string(i));
      expect_identical(standalone[i], results[i]);
    }
  }
}

TEST(MonteCarloDeterminism, OnePointCallRunsTrialsConcurrently) {
  // A lone point spreads its trials over the pool: the first trial to start
  // waits, for at most 10 s, until a second one has started beside it.
  const AttackFn attack_fn = successive_fn();
  std::atomic<int> started{0};
  std::atomic<bool> overlapped{false};
  const AttackFn waiting = [&](sosnet::SosOverlay& overlay, common::Rng& rng) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (started.load() >= 2) overlapped.store(true);
    return attack_fn(overlay, rng);
  };

  ThreadPool pool{2};
  run_monte_carlo({{small_design(core::MappingPolicy::one_to_two()), waiting,
                    {.trials = 4, .walks_per_trial = 2, .seed = 5}}},
                  &pool);
  EXPECT_TRUE(overlapped.load());
}

}  // namespace
}  // namespace sos::sim
