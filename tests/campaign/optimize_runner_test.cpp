// OptimizeRunner end-to-end: the frontier search with campaign-routed
// Monte Carlo validation of every winner. Pins the acceptance criterion of
// the optimizer PR — each winner's analytic worst-case P_S lands inside the
// stored Wilson interval (with the model-bias margin measured in PR 3) —
// plus warm-cache reruns through the shared ResultStore, search-only /
// status classification, CSV assembly, and distributed quarantine of a
// chaos-poisoned validation.
//
// The OptimizeSmoke suite doubles as `ctest -L optimize-smoke`.
#include "campaign/optimize_runner.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/result_store.h"
#include "common/strings.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

/// Compact spec: 1000-node substrate, 2 x 2 x 2 grid (L=1 drops nothing —
/// the axis starts at 2), exhaustive searcher, light validation load.
optimize::OptimizeSpec tiny_spec() {
  optimize::OptimizeSpec spec;
  spec.name = "tiny-frontier";
  spec.space.total_overlay_nodes = 1000;
  spec.space.filter_count = 8;
  spec.space.layers = {2, 3};
  spec.space.sos_nodes = {24, 48};
  spec.space.mappings = {"one-to-one", "one-to-all"};
  spec.space.distributions = {"even"};
  spec.objective.model = optimize::AttackerModel::kSuccessive;
  spec.objective.budget.total = 400.0;
  spec.objective.budget.break_in_cost = 2.0;
  spec.objective.budget.congestion_cost = 1.0;
  spec.objective.budget.rounds = 2;
  spec.objective.budget.prior_knowledge = 0.1;
  spec.objective.budget.break_in_success = 0.5;
  spec.objective.split_steps = 11;
  spec.searcher = optimize::OptimizeSpec::Searcher::kExhaustive;
  spec.validate_trials = 200;
  spec.mc_walks = 4;
  spec.seed = 0x5055ULL;
  spec.validate();
  return spec;
}

class OptimizeSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid + test-name unique, so concurrent runs of one body never share
    // a store.
    root_ = fs::temp_directory_path() /
            ("sos_optimize_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store_dir() const { return (root_ / "store").string(); }
  std::string results_dir() const { return (root_ / "results").string(); }

  fs::path root_;
};

TEST_F(OptimizeSmoke, ValidatedFrontierWithWarmRerun) {
  const auto spec = tiny_spec();
  OptimizeOptions options;
  options.store_dir = store_dir();

  OptimizeRunner runner{spec, options};
  const auto report = runner.run();

  ASSERT_FALSE(report.search.frontier.empty());
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.validated,
            static_cast<int>(report.search.frontier.size()));
  EXPECT_EQ(report.pending, 0);
  EXPECT_EQ(report.quarantined, 0);

  // THE acceptance criterion: every winner's analytic worst-case P_S sits
  // inside the campaign-measured Wilson interval, widened by the ±0.08
  // average-case-model bias bound measured in PR 3.
  for (const auto& winner : report.winners) {
    ASSERT_TRUE(winner.done) << winner.campaign;
    EXPECT_GE(winner.design.p_success(), winner.ci_lo - 0.08)
        << winner.campaign;
    EXPECT_LE(winner.design.p_success(), winner.ci_hi + 0.08)
        << winner.campaign;
    EXPECT_GE(winner.ci_lo, 0.0);
    EXPECT_LE(winner.ci_hi, 1.0);
    EXPECT_LE(winner.ci_lo, winner.p_mc);
    EXPECT_GE(winner.p_mc, 0.0);
    EXPECT_FALSE(winner.digest.empty());
  }

  // Warm rerun: every winner object already exists, so nothing recomputes
  // and the numbers come back identical.
  OptimizeRunner rerun{spec, options};
  const auto warm = rerun.run();
  EXPECT_TRUE(warm.complete());
  ASSERT_EQ(warm.winners.size(), report.winners.size());
  for (std::size_t i = 0; i < warm.winners.size(); ++i) {
    EXPECT_EQ(warm.winners[i].attempts, 0) << "winner recomputed on rerun";
    EXPECT_EQ(warm.winners[i].digest, report.winners[i].digest);
    EXPECT_EQ(warm.winners[i].p_mc, report.winners[i].p_mc);
    EXPECT_EQ(warm.winners[i].ci_lo, report.winners[i].ci_lo);
    EXPECT_EQ(warm.winners[i].ci_hi, report.winners[i].ci_hi);
  }

  // Output assembly: one CSV with a fully-validated frontier.
  const auto paths = runner.write_outputs(report, results_dir());
  ASSERT_EQ(paths.size(), 1u);
  const auto csv = runner.frontier_csv(report);
  EXPECT_EQ(common::split(csv, '\n').front(),
            "rank,L,n,mapping,distribution,cost,N_T,N_C,fraction,P_S_model,"
            "P_S_mc,mc_ci_lo,mc_ci_hi,validated");
  EXPECT_NE(csv.find(",yes"), std::string::npos);
  EXPECT_EQ(csv.find("pending"), std::string::npos);
}

TEST_F(OptimizeSmoke, SearchOnlyLeavesWinnersPending) {
  const auto spec = tiny_spec();
  OptimizeOptions options;
  options.store_dir = store_dir();
  options.search_only = true;

  OptimizeRunner runner{spec, options};
  const auto report = runner.run();
  ASSERT_FALSE(report.search.frontier.empty());
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.validated, 0);
  EXPECT_EQ(report.pending,
            static_cast<int>(report.search.frontier.size()));
  EXPECT_NE(runner.frontier_csv(report).find("pending"), std::string::npos);

  // The store holds no winner objects yet.
  const ResultStore store{store_dir()};
  for (const auto& winner : report.winners)
    EXPECT_FALSE(store.has(winner.digest));
}

TEST_F(OptimizeSmoke, StatusClassifiesAgainstTheStore) {
  const auto spec = tiny_spec();
  OptimizeOptions options;
  options.store_dir = store_dir();

  OptimizeRunner cold{spec, options};
  EXPECT_EQ(cold.status().validated, 0);

  OptimizeRunner worker{spec, options};
  const auto computed = worker.run();
  EXPECT_TRUE(computed.complete());

  // A fresh runner's status() sees every winner done without recomputing,
  // and parses the stored intervals back out.
  OptimizeRunner observer{spec, options};
  const auto seen = observer.status();
  EXPECT_TRUE(seen.complete());
  ASSERT_EQ(seen.winners.size(), computed.winners.size());
  for (std::size_t i = 0; i < seen.winners.size(); ++i) {
    EXPECT_TRUE(seen.winners[i].done);
    EXPECT_EQ(seen.winners[i].p_mc, computed.winners[i].p_mc);
  }
}

TEST_F(OptimizeSmoke, WinnerSpecPinsTheWorstCaseSplit) {
  const auto spec = tiny_spec();
  optimize::EvaluatedDesign winner;
  winner.point.layers = 3;
  winner.point.sos_nodes = 48;
  winner.point.mapping = "one-to-all";
  winner.point.distribution = "even";
  winner.worst.break_in_budget = 40;
  winner.worst.congestion_budget = 320;

  const auto validation = OptimizeRunner::winner_spec(spec, winner);
  EXPECT_EQ(validation.name, "tiny-frontier-L3-n48-one-to-all-even");
  EXPECT_EQ(validation.mode, ScenarioSpec::Mode::kSweep);
  EXPECT_EQ(validation.layers, (std::vector<int>{3}));
  EXPECT_EQ(validation.break_in, (std::vector<int>{40}));
  EXPECT_EQ(validation.congestion, (std::vector<int>{320}));
  EXPECT_EQ(validation.mc_trials, spec.validate_trials);
  EXPECT_EQ(validation.attacker, "successive");
  EXPECT_EQ(validation.rounds, spec.objective.budget.rounds);
}

TEST_F(OptimizeSmoke, DistributedChaosQuarantinesPoisonedWinners) {
  auto spec = tiny_spec();
  // One winner is enough to exercise the quarantine path cheaply.
  spec.space.layers = {2};
  spec.space.sos_nodes = {24};
  spec.space.mappings = {"one-to-one"};
  spec.validate_trials = 8;
  spec.validate();

  OptimizeOptions options;
  options.store_dir = store_dir();
  options.distributed.emplace();
  options.distributed->local_workers = 1;
  options.distributed->retry.max_retries = 1;
  options.distributed->retry.backoff_base_s = 0.01;
  options.distributed->chaos.bad_exit = 1.0;  // every attempt dies
  options.distributed->chaos.max_fires_per_point = 0;  // ...on every retry

  OptimizeRunner runner{spec, options};
  const auto report = runner.run();
  ASSERT_FALSE(report.winners.empty());
  EXPECT_TRUE(report.degraded());
  EXPECT_FALSE(report.complete());
  EXPECT_GT(report.quarantined, 0);
  for (const auto& winner : report.winners) {
    EXPECT_FALSE(winner.done);
    EXPECT_TRUE(winner.quarantined);
  }
  EXPECT_NE(runner.frontier_csv(report).find("quarantined"),
            std::string::npos);

  // The quarantine is a store record, not a verdict: a clean distributed
  // rerun computes the winner and the report completes.
  OptimizeOptions healthy = options;
  healthy.distributed->chaos = ChaosConfig{};
  OptimizeRunner retry{spec, healthy};
  const auto recovered = retry.run();
  EXPECT_TRUE(recovered.complete()) << "clean rerun must recover";
  for (const auto& winner : recovered.winners) EXPECT_TRUE(winner.done);
}

}  // namespace
}  // namespace sos::campaign
