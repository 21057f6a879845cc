// The distributed chaos harness: seeded network and process faults
// injected into TCP workers must never cost a checkpoint or a byte of
// store identity. Connection drops, partitions (heartbeat blackhole +
// late delivery), torn TCP frames, duplicate delivery, worker SIGKILL
// /hang/bad-exit over sockets — every schedule converges to a settled
// report and a store byte-identical to the fault-free run, or to an
// auditable quarantine when retries are exhausted.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/remote_pool.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_sweep() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.total_overlay = 1000;
  spec.mc_trials = 2;
  spec.mc_walks = 2;
  spec.seed = 7;
  spec.layers = {1, 3};
  spec.mappings = {"one-to-one", "one-to-all"};
  spec.break_in = {0, 50};
  spec.congestion = {200};
  return spec;
}

class DistributedChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_distributed_chaos_test_" + std::to_string(::getpid()) +
             "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  RemotePoolOptions chaotic_options(const std::string& store_dir) {
    RemotePoolOptions options;
    options.store_dir = store_dir;
    options.local_workers = 2;
    options.points_per_assign = 2;
    options.heartbeat_interval_s = 0.02;
    options.heartbeat_timeout_s = 0.5;
    options.registration_timeout_s = 15.0;
    options.retry.backoff_base_s = 0.01;
    options.retry.backoff_max_s = 0.1;
    return options;
  }

  std::vector<std::pair<std::string, std::string>> store_objects(
      const std::string& dir) {
    ResultStore result_store{dir};
    std::vector<std::pair<std::string, std::string>> objects;
    for (auto digest : result_store.object_digests()) {
      auto bytes = result_store.load(digest);
      objects.emplace_back(std::move(digest), bytes ? *bytes : "<invalid>");
    }
    std::sort(objects.begin(), objects.end());
    return objects;
  }

  /// The fault-free reference store for tiny_sweep (built once per test).
  std::vector<std::pair<std::string, std::string>> reference_objects() {
    CampaignOptions options;
    options.store_dir = store("reference");
    CampaignRunner runner{tiny_sweep(), options};
    runner.run();
    return store_objects(store("reference"));
  }

  fs::path root_;
};

TEST_F(DistributedChaosTest, EveryNetworkFaultConvergesBitIdentically) {
  // One fault family at a time, each with its own store: the campaign
  // must settle complete (retries allowed, quarantine not expected at
  // fire-budget 1) and match the fault-free bytes exactly.
  const auto reference = reference_objects();
  struct Scenario {
    const char* name;
    void (*arm)(ChaosConfig&);
  };
  const Scenario scenarios[] = {
      {"drop", [](ChaosConfig& chaos) { chaos.net_drop = 0.6; }},
      {"torn", [](ChaosConfig& chaos) { chaos.net_torn = 0.6; }},
      {"duplicate", [](ChaosConfig& chaos) { chaos.net_duplicate = 0.6; }},
      {"sigkill", [](ChaosConfig& chaos) { chaos.sigkill = 0.5; }},
      {"bad_exit", [](ChaosConfig& chaos) { chaos.bad_exit = 0.5; }},
      {"truncate", [](ChaosConfig& chaos) { chaos.truncate = 0.5; }},
  };
  for (const auto& scenario : scenarios) {
    auto options = chaotic_options(store(scenario.name));
    options.chaos.seed = 11;
    scenario.arm(options.chaos);
    RemoteWorkerPool pool{tiny_sweep(), options};
    const auto report = pool.run();
    EXPECT_TRUE(report.settled()) << scenario.name;
    EXPECT_TRUE(report.complete()) << scenario.name;
    EXPECT_FALSE(report.degraded()) << scenario.name;
    EXPECT_EQ(store_objects(store(scenario.name)), reference)
        << scenario.name;
  }
}

TEST_F(DistributedChaosTest, MixedFaultStormStillConverges) {
  // Everything at once — process deaths, drops, torn frames, duplicates —
  // across both fault families. Deterministic per seed; still identical.
  const auto reference = reference_objects();
  auto options = chaotic_options(store("storm"));
  options.chaos.seed = 23;
  options.chaos.sigkill = 0.2;
  options.chaos.bad_exit = 0.1;
  options.chaos.truncate = 0.1;
  options.chaos.net_drop = 0.2;
  options.chaos.net_torn = 0.1;
  options.chaos.net_duplicate = 0.2;
  RemoteWorkerPool pool{tiny_sweep(), options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(store_objects(store("storm")), reference);
}

TEST_F(DistributedChaosTest, HangedWorkerIsEvictedByHeartbeatSilence) {
  // A SIGSTOP-ed TCP worker sends no heartbeats; the coordinator must
  // charge its poison point, SIGKILL and respawn the child, and finish
  // complete. (CoordinatorCore.HeartbeatSilenceSuspendsKillsAndCharges pins
  // the charge and its reason on a virtual clock; this is the fork path.)
  const auto reference = reference_objects();
  auto options = chaotic_options(store("hang"));
  options.heartbeat_timeout_s = 0.2;
  options.chaos.seed = 5;
  options.chaos.hang = 0.4;
  RemoteWorkerPool pool{tiny_sweep(), options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(store_objects(store("hang")), reference);
}

TEST_F(DistributedChaosTest, PartitionedWorkerDeliversLateAndDeduplicates) {
  // One partition over real sockets, with ONE external thread worker (the
  // shared thread pool allows one in-process worker at a time): the
  // worker blackholes its heartbeats for longer than the eviction
  // threshold, is charged and suspended, then delivers late — and the
  // late result lands without corrupting the store. Seed 7 at p = 0.2
  // partitions point 1 alone. The policy around it (revival, dedup, no
  // reassignment of the late point) is pinned on a virtual clock by
  // CoordinatorCore.PartitionedWorkerDeliversLateRevivesAndIsStoredOnce.
  const auto reference = reference_objects();
  auto options = chaotic_options(store("partition"));
  options.local_workers = 0;  // external thread worker only
  options.heartbeat_timeout_s = 0.1;

  RemoteWorkerPool pool{tiny_sweep(), options};

  RemoteWorkerConfig worker;
  worker.port = pool.port();
  worker.heartbeat_interval_s = 0.02;
  worker.chaos.seed = 7;
  worker.chaos.net_partition = 0.2;
  worker.chaos.net_partition_s = 0.2;  // > heartbeat_timeout_s: evicted
  int worker_exit = -1;
  std::thread serve([&]() { worker_exit = run_remote_worker(worker); });

  const auto report = pool.run();
  serve.join();
  EXPECT_EQ(worker_exit, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_GT(report.retried, 0);  // at least one partition was charged
  EXPECT_EQ(store_objects(store("partition")), reference);
}

TEST_F(DistributedChaosTest, CertainFaultQuarantinesWithAuditableReason) {
  // An unlimited-fire certain fault exhausts every retry: the campaign
  // must settle degraded with typed PointFailure records, not hang or
  // die. Unaffected points still complete.
  auto options = chaotic_options(store("quarantine"));
  options.local_workers = 1;
  options.retry.max_retries = 1;
  options.chaos.seed = 3;
  options.chaos.net_drop = 1.0;
  options.chaos.max_fires_per_point = 0;  // every attempt drops
  RemoteWorkerPool pool{tiny_sweep(), options};
  const auto report = pool.run();
  EXPECT_TRUE(report.settled());
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.quarantined, 8);
  ASSERT_EQ(report.failures.size(), 8u);
  for (const auto& failure : report.failures) {
    EXPECT_EQ(failure.attempts, 2);  // 1 + max_retries
    EXPECT_FALSE(failure.reason.empty());
  }

  // Recovery: rerunning without chaos clears the quarantine and the
  // store converges to the reference bytes.
  const auto reference = reference_objects();
  auto healthy = chaotic_options(store("quarantine"));
  healthy.local_workers = 1;
  const auto recovered = RemoteWorkerPool{tiny_sweep(), healthy}.run();
  EXPECT_TRUE(recovered.complete());
  EXPECT_FALSE(recovered.degraded());
  EXPECT_EQ(store_objects(store("quarantine")), reference);
}

TEST_F(DistributedChaosTest, ChaosScheduleIsDeterministicPerSeed) {
  // Same seed -> same retry count; the chaos draws key on
  // (seed, point, attempt) and nothing else.
  const auto run_with_seed = [&](const std::string& name,
                                 std::uint64_t seed) {
    auto options = chaotic_options(store(name));
    options.local_workers = 1;
    options.points_per_assign = 8;
    options.chaos.seed = seed;
    options.chaos.net_drop = 0.5;
    return RemoteWorkerPool{tiny_sweep(), options}.run().retried;
  };
  const int first = run_with_seed("seed_a", 77);
  const int second = run_with_seed("seed_b", 77);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace sos::campaign
