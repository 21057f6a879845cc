// RemoteWorkerPool end-to-end: a distributed campaign over TCP workers
// must produce a store byte-identical to the in-process CampaignRunner on
// the same spec, at any worker count and for figure campaigns too; serve
// warm caches; resume checkpoints across executors; register external
// workers (run_remote_worker driven from a thread, exactly what
// `sos_campaign serve` runs); close a worker that heartbeats but never
// finishes its point at the point deadline; and fail with
// FleetUnreachableError — never a hang — when no worker ever shows up.
//
// Thread-worker caution: CampaignRunner's point computation fans out over
// ThreadPool::shared(), which must be owned by one caller at a time — so
// tests drive at most ONE in-process worker thread, and multi-worker
// fleets use the pool's forked loopback children.
#include "campaign/remote_pool.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/registry.h"
#include "campaign/remote_protocol.h"
#include "common/net.h"
#include "common/proc.h"
#include "experiments/figure.h"
#include "experiments/figures.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

/// Small sweep: 2 x 2 x 2 x 1 = 8 points with a light Monte Carlo overlay
/// (the same grid the chaos tests pin).
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

RemotePoolOptions fast_options(const std::string& store_dir) {
  RemotePoolOptions options;
  options.store_dir = store_dir;
  options.heartbeat_interval_s = 0.02;
  options.heartbeat_timeout_s = 1.0;
  options.registration_timeout_s = 10.0;
  options.retry.backoff_base_s = 0.01;
  options.retry.backoff_max_s = 0.1;
  return options;
}

class RemotePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_remote_pool_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  /// Reference output from an in-process run of `spec`.
  std::string reference_csv(const ScenarioSpec& spec) {
    CampaignOptions options;
    options.store_dir = store("reference");
    CampaignRunner runner{spec, options};
    runner.run();
    return runner.sweep_csv();
  }

  /// Sorted (digest, object bytes) inventory — the bit-identity witness.
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

  fs::path root_;
};

TEST_F(RemotePoolTest, DistributedRunIsBitIdenticalToInProcess) {
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  auto options = fast_options(store("dist"));
  options.local_workers = 3;
  options.points_per_assign = 2;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();

  EXPECT_EQ(report.total, 8);
  EXPECT_EQ(report.computed, 8);
  EXPECT_EQ(report.retried, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(pool.runner().sweep_csv(), reference);
  EXPECT_EQ(store_objects(store("dist")), store_objects(store("reference")));
}

TEST_F(RemotePoolTest, EveryExecutorProducesTheSameStoreBytes) {
  // The non-negotiable invariant: in-process and a TCP worker fleet
  // converge to identical objects.
  const auto spec = tiny_sweep();
  reference_csv(spec);  // in-process -> store("reference")

  auto distributed = fast_options(store("dist"));
  distributed.local_workers = 4;
  distributed.points_per_assign = 1;
  RemoteWorkerPool{spec, distributed}.run();

  EXPECT_EQ(store_objects(store("dist")), store_objects(store("reference")));
}

TEST_F(RemotePoolTest, ShardingAcrossManyWorkersDoesNotChangeBytes) {
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);
  for (const int workers : {1, 4, 8}) {
    const std::string name = "w" + std::to_string(workers);
    auto options = fast_options(store(name));
    options.local_workers = workers;
    options.points_per_assign = 2;
    RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    EXPECT_TRUE(report.complete()) << "workers=" << workers;
    EXPECT_EQ(pool.runner().sweep_csv(), reference) << "workers=" << workers;
    EXPECT_EQ(store_objects(store(name)), store_objects(store("reference")))
        << "workers=" << workers;
  }
}

TEST_F(RemotePoolTest, FigureCampaignDistributedMatchesTheLegacyGenerator) {
  experiments::Params params;
  params.mc_trials = 0;
  auto options = fast_options(store("fig"));
  options.local_workers = 1;
  RemoteWorkerPool pool{figure_spec("fig4a", params, 0), options};
  const auto report = pool.run();
  EXPECT_EQ(report.computed, 1);
  EXPECT_EQ(pool.runner().figure_csv("fig4a"),
            experiments::fig4a(params).table.to_csv());
}

TEST_F(RemotePoolTest, WarmRerunServesEveryPointFromCache) {
  const auto spec = tiny_sweep();
  auto options = fast_options(store("s"));
  options.local_workers = 2;
  RemoteWorkerPool{spec, options}.run();

  RemoteWorkerPool warm{spec, fast_options(store("s"))};
  const auto report = warm.run();
  EXPECT_EQ(report.cached, 8);
  EXPECT_EQ(report.computed, 0);
  EXPECT_TRUE(report.complete());
}

TEST_F(RemotePoolTest, ResumesFromInProcessCheckpoints) {
  // Stores are interchangeable across every executor: an in-process run
  // interrupted after 3 checkpoints finishes under the TCP pool, and only
  // the unfinished points are recomputed.
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  CampaignOptions crash_options;
  crash_options.store_dir = store("s");
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 3) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW((CampaignRunner{spec, crash_options}.run()),
               std::runtime_error);

  auto options = fast_options(store("s"));
  options.local_workers = 2;
  RemoteWorkerPool resumed{spec, options};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 3);
  EXPECT_EQ(report.computed, 5);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(resumed.runner().sweep_csv(), reference);
}

TEST_F(RemotePoolTest, ExternalWorkerRegistersAndComputesEverything) {
  // No local children at all: one external worker — run_remote_worker on
  // a thread, the exact `sos_campaign serve` body — joins over TCP and
  // carries the whole campaign.
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  auto options = fast_options(store("ext"));
  options.local_workers = 0;
  RemoteWorkerPool pool{spec, options};

  RemoteWorkerConfig worker;
  worker.port = pool.port();
  worker.heartbeat_interval_s = 0.02;
  int worker_exit = -1;
  std::thread serve([&]() { worker_exit = run_remote_worker(worker); });

  const auto report = pool.run();
  serve.join();
  EXPECT_EQ(worker_exit, 0);  // clean SHUTDOWN
  EXPECT_EQ(report.computed, 8);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(pool.runner().sweep_csv(), reference);
  EXPECT_EQ(store_objects(store("ext")), store_objects(store("reference")));
}

TEST_F(RemotePoolTest, CheckpointHookSeesEveryComputedPointInOrder) {
  std::vector<int> counts;
  auto options = fast_options(store("s"));
  options.local_workers = 1;
  options.checkpoint_hook = [&counts](int completed) {
    counts.push_back(completed);
  };
  RemoteWorkerPool{tiny_sweep(), options}.run();
  const std::vector<int> expected{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(counts, expected);
}

TEST_F(RemotePoolTest, EmptyFleetThrowsFleetUnreachable) {
  // The timeout and its message are pinned on a virtual clock by
  // CoordinatorCore.EmptyFleetThrowsFleetUnreachableAtTheTimeout.
  auto options = fast_options(store("s"));
  options.local_workers = 0;
  options.registration_timeout_s = 0.05;
  RemoteWorkerPool pool{tiny_sweep(), options};
  EXPECT_THROW(pool.run(), FleetUnreachableError);
}

TEST_F(RemotePoolTest, WorkerWithNoCoordinatorExitsFleetUnreachable) {
  // Bind-then-rebind guarantees a dead port; connect must give up with
  // the documented exit code, not spin forever.
  auto dead_port_probe = common::Listener::bind_loopback();
  const auto dead_port = dead_port_probe.port();
  dead_port_probe = common::Listener::bind_loopback();

  RemoteWorkerConfig worker;
  worker.port = dead_port;
  worker.connect_timeout_s = 0.05;
  EXPECT_EQ(run_remote_worker(worker), kExitFleetUnreachable);
  EXPECT_EQ(kExitFleetUnreachable, 4);  // the CLI contract pins the value
}

TEST_F(RemotePoolTest, PortIsKnownBeforeRun) {
  RemoteWorkerPool pool{tiny_sweep(), fast_options(store("s"))};
  EXPECT_GT(pool.port(), 0);
}

TEST_F(RemotePoolTest, OptionsValidateRejectsNonsense) {
  const auto spec = tiny_sweep();

  auto bad_workers = fast_options(store("s"));
  bad_workers.local_workers = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_workers}), std::invalid_argument);

  auto bad_assign = fast_options(store("s"));
  bad_assign.points_per_assign = 0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_assign}), std::invalid_argument);

  auto bad_beat = fast_options(store("s"));
  bad_beat.heartbeat_interval_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_beat}), std::invalid_argument);

  auto bad_timeout = fast_options(store("s"));
  bad_timeout.heartbeat_timeout_s = bad_timeout.heartbeat_interval_s / 2;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_timeout}), std::invalid_argument);

  auto bad_registration = fast_options(store("s"));
  bad_registration.registration_timeout_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_registration}),
               std::invalid_argument);

  auto bad_deadline = fast_options(store("s"));
  bad_deadline.point_deadline_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_deadline}), std::invalid_argument);

  auto bad_retry = fast_options(store("s"));
  bad_retry.retry.max_retries = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_retry}), std::invalid_argument);

  auto bad_chaos = fast_options(store("s"));
  bad_chaos.chaos.net_drop = 1.5;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_chaos}), std::invalid_argument);

  auto bad_partition = fast_options(store("s"));
  bad_partition.chaos.net_partition_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_partition}),
               std::invalid_argument);

  auto bad_fires = fast_options(store("s"));
  bad_fires.chaos.max_fires_per_point = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_fires}), std::invalid_argument);

  // The serve side: a non-positive heartbeat interval would make the
  // heartbeat thread write frames back to back.
  RemoteWorkerConfig worker;
  EXPECT_NO_THROW(worker.validate());
  for (const double interval : {0.0, -0.05}) {
    worker.heartbeat_interval_s = interval;
    EXPECT_THROW(worker.validate(), std::invalid_argument) << interval;
  }
  worker.heartbeat_interval_s = 0.05;
  worker.chaos.net_drop = 1.5;
  EXPECT_THROW(worker.validate(), std::invalid_argument);
}

TEST_F(RemotePoolTest, StuckWorkerIsClosedAtThePointDeadline) {
  // A worker stuck inside a point keeps heartbeating (its heartbeats come
  // from their own thread), so only the per-point deadline can catch it.
  // Here a hand-built worker registers, takes an assignment, heartbeats
  // and never sends a RESULT. The coordinator must close it at
  // point_deadline_s — heartbeat silence never fires — charging its first
  // point exactly once; a real worker then finishes the store
  // byte-identically. (CoordinatorCore.StuckWorkerIsClosedAtThePointDeadline
  // pins the deadline restart and the reason string on a virtual clock.)
  using Clock = std::chrono::steady_clock;
  const auto spec = tiny_sweep();
  reference_csv(spec);  // before any worker thread borrows the shared pool

  auto options = fast_options(store("stuck"));
  options.local_workers = 0;
  options.points_per_assign = 2;
  options.heartbeat_timeout_s = 5.0;
  options.point_deadline_s = 0.15;
  RemoteWorkerPool pool{spec, options};
  const std::uint16_t port = pool.port();

  double assigned_to_closed_s = -1.0;
  std::vector<Assignment> taken;
  int real_worker_exit = -1;
  std::thread fleet([&]() {
    {
      auto sock = common::Socket::connect_ipv4("127.0.0.1", port);
      if (!sock) return;
      const common::MacKey base_key = load_base_key("");
      Hello hello;
      hello.pid = 1;  // no local child has this pid: nothing to SIGKILL
      hello.challenge = 0x57c4;
      const common::MacKey session_key =
          common::derive_session_key(base_key, hello.challenge);
      if (!common::write_frame(sock->fd(),
                               seal_frame(encode_hello(hello), base_key)))
        return;
      const std::string beat = seal_frame(encode_heartbeat(), session_key);
      common::FrameBuffer frames;
      Clock::time_point assigned_at;
      auto next_beat = Clock::now();
      const auto give_up = Clock::now() + std::chrono::seconds(20);
      while (Clock::now() < give_up) {
        if (Clock::now() >= next_beat) {
          (void)common::write_frame(sock->fd(), beat);
          next_beat = Clock::now() + std::chrono::milliseconds(20);
        }
        ::pollfd waiter{sock->fd(), POLLIN, 0};
        if (::poll(&waiter, 1, 10) <= 0) continue;
        char buffer[4096];
        const long n = sock->read_some(buffer, sizeof(buffer));
        if (n == 0 || n == -2) {  // the coordinator closed the session
          if (!taken.empty())
            assigned_to_closed_s =
                std::chrono::duration<double>(Clock::now() - assigned_at)
                    .count();
          break;
        }
        if (n < 0) continue;
        frames.feed(buffer, static_cast<std::size_t>(n));
        while (const auto raw = frames.next_frame()) {
          const auto frame = open_frame(*raw, session_key);
          if (frame && message_type(*frame) == MessageType::kAssign &&
              taken.empty()) {
            taken = parse_assign(*frame).value_or(std::vector<Assignment>{});
            assigned_at = Clock::now();
          }
        }
      }
    }
    RemoteWorkerConfig worker;
    worker.port = port;
    worker.heartbeat_interval_s = 0.02;
    real_worker_exit = run_remote_worker(worker);
  });

  const auto report = pool.run();
  fleet.join();

  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].index, 0);
  EXPECT_EQ(taken[0].attempt, 0);
  EXPECT_GE(assigned_to_closed_s, options.point_deadline_s - 0.05);
  EXPECT_LT(assigned_to_closed_s, options.heartbeat_timeout_s);
  EXPECT_EQ(report.retried, 1);  // the first point, charged once
  EXPECT_EQ(real_worker_exit, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(store_objects(store("stuck")), store_objects(store("reference")));
}

}  // namespace
}  // namespace sos::campaign
