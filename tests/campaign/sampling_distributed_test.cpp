// Distributed trials=auto parity (part of `ctest -L sampling-smoke`): a
// pool worker computes its points through the same compute_points as an
// in-process run, so a stopping-rule campaign must produce byte-identical
// output whether the points run in-process or in forked loopback workers. Lives in the
// robustness binary because the pool forks workers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "campaign/remote_pool.h"
#include "campaign/runner.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

ScenarioSpec auto_sweep(const std::string& estimator) {
  ScenarioSpec spec;
  spec.name = "auto_distributed";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.total_overlay = 1000;
  spec.mc_walks = 2;
  spec.seed = 11;
  spec.layers = {1, 3};
  spec.mappings = {"one-to-all"};
  spec.break_in = {50, 150};
  spec.congestion = {200};
  spec.auto_trials.enabled = true;
  spec.auto_trials.ci = 0.2;
  spec.auto_trials.max_trials = 128;
  spec.auto_trials.estimator = estimator;
  spec.mc_trials = 0;
  return spec;
}

class SamplingDistributed : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_sampling_distributed_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  fs::path root_;
};

TEST_F(SamplingDistributed, DistributedAutoCampaignIsBitIdenticalToInProcess) {
  for (const std::string estimator : {"sequential", "stratified"}) {
    const auto spec = auto_sweep(estimator);

    CampaignOptions in_process;
    in_process.store_dir = store(estimator + "_ref");
    CampaignRunner reference{spec, in_process};
    reference.run();

    RemotePoolOptions options;
    options.store_dir = store(estimator + "_dist");
    options.retry.backoff_base_s = 0.01;
    options.retry.backoff_max_s = 0.1;
    options.local_workers = 2;
    options.points_per_assign = 1;
    RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    EXPECT_TRUE(report.complete()) << estimator;
    EXPECT_EQ(pool.runner().sweep_csv(), reference.sweep_csv()) << estimator;
  }
}

}  // namespace
}  // namespace sos::campaign
