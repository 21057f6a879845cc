// SamplingSmoke — `ctest -L sampling-smoke`: a tiny trials=auto campaign
// end-to-end through both estimators, and crash/resume byte identity. The stopped trial counts live in the result
// rows (mc_trials_resolved), so a resumed campaign reproduces a cold run
// exactly even though no fixed trial count appears in the spec.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "campaign/runner.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

/// 2 x 2 sweep with a stopping rule instead of a fixed trial count.
ScenarioSpec auto_sweep(const std::string& estimator) {
  ScenarioSpec spec;
  spec.name = "auto_smoke";
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

class SamplingSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique (see runner_test.cpp: two processes may run the same
    // body in parallel).
    root_ = fs::temp_directory_path() /
            ("sos_sampling_smoke_" + std::to_string(::getpid()) + "_" +
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

TEST_F(SamplingSmoke, EveryEstimatorRunsEndToEndWithSelfDescribingRows) {
  for (const std::string estimator : {"sequential", "stratified"}) {
    const auto spec = auto_sweep(estimator);
    CampaignOptions options;
    options.store_dir = store(estimator);
    CampaignRunner runner{spec, options};
    const auto report = runner.run();
    EXPECT_EQ(report.total, 4) << estimator;
    EXPECT_TRUE(report.complete()) << estimator;
    const auto csv = runner.sweep_csv();
    EXPECT_NE(csv.find("P_S_mc"), std::string::npos) << estimator;
    EXPECT_NE(csv.find("mc_trials_resolved"), std::string::npos) << estimator;
    EXPECT_EQ(csv.find("mc_ess"), std::string::npos) << estimator;

    // Warm rerun: every auto point must be served from cache (the resolved
    // trial counts live in the stored rows, not the spec).
    CampaignRunner warm{spec, options};
    const auto again = warm.run();
    EXPECT_EQ(again.cached, 4) << estimator;
    EXPECT_EQ(warm.sweep_csv(), csv) << estimator;
  }
}

TEST_F(SamplingSmoke, CrashedAutoCampaignResumesWithIdenticalBytes) {
  const auto spec = auto_sweep("stratified");

  CampaignOptions reference_options;
  reference_options.store_dir = store("reference");
  CampaignRunner reference{spec, reference_options};
  reference.run();

  CampaignOptions crash_options;
  crash_options.store_dir = store("crashed");
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 2) throw std::runtime_error("simulated crash");
  };
  CampaignRunner crashing{spec, crash_options};
  EXPECT_THROW(crashing.run(), std::runtime_error);

  CampaignOptions resume_options;
  resume_options.store_dir = store("crashed");
  CampaignRunner resumed{spec, resume_options};
  const auto report = resumed.run();
  EXPECT_TRUE(report.complete());
  EXPECT_GT(report.cached, 0);
  EXPECT_EQ(resumed.sweep_csv(), reference.sweep_csv());
}

}  // namespace
}  // namespace sos::campaign
