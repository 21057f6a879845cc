// Fleet survivability: coordinator crash-recovery and authenticated
// transport, end-to-end over real TCP sessions.
//
//   * CoordinatorRecovery — the coordinator journal (charge state persisted
//     into the store) restores under resume=true, a stale journal is
//     discarded by a fresh run, and a coordinator that dies mid-campaign is
//     replaced on the same port with surviving workers reconnecting and the
//     settled store byte-identical to an uninterrupted run. (The CLI-level
//     twin in cli_exit_codes_test.sh SIGKILLs the real process; here the
//     death is simulated by a throwing checkpoint hook so the test process
//     survives to assert.)
//   * FleetAuth — a worker with the wrong pre-shared key is rejected with
//     the golden typed reason while the campaign completes on the rest of
//     the fleet; a legacy v1 peer gets the golden version-mismatch REJECT,
//     unsealed so it can actually read it.
//   * Object bit-flip chaos — every stored object damaged at rest is
//     detected (StoreCorruptError at output assembly), quarantined by
//     fsck, and healed by one clean re-run to byte-identical objects.
//
// Thread-worker caution (same as remote_pool_test.cpp): at most ONE
// in-process worker thread per test; fleets beyond that use forked
// loopback children.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/digest.h"
#include "campaign/remote_pool.h"
#include "campaign/remote_protocol.h"
#include "campaign/result_store.h"
#include "common/files.h"
#include "common/net.h"
#include "common/proc.h"

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

class RecoveryTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_recovery_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  /// Reference store from an in-process run (run BEFORE any
  /// worker thread starts: both sides borrow the shared ThreadPool).
  void compute_reference(const ScenarioSpec& spec) {
    CampaignOptions options;
    options.store_dir = store("reference");
    CampaignRunner{spec, options}.run();
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

  /// A loopback port that is free right now: bind ephemeral, read, release.
  static std::uint16_t free_port() {
    return common::Listener::bind_loopback().port();
  }

  fs::path root_;
};

class CoordinatorRecovery : public RecoveryTestBase {};
class FleetAuth : public RecoveryTestBase {};

TEST_F(CoordinatorRecovery, DeadCoordinatorReplacedOnSamePortByteIdentical) {
  // The tentpole drill: coordinator #1 dies after 3 durable checkpoints
  // (simulated — a throwing hook unwinds run() exactly where a SIGKILL
  // would cut it); coordinator #2 binds the SAME fixed port with
  // resume=true; the surviving external worker reconnects on its own and
  // the settled store is byte-identical to an uninterrupted run.
  const auto spec = tiny_sweep();
  compute_reference(spec);
  const std::uint16_t port = free_port();

  RemoteWorkerConfig worker;
  worker.port = port;
  worker.heartbeat_interval_s = 0.02;
  worker.max_reconnects = 8;
  int worker_exit = -1;
  std::thread serve;

  {
    auto options = fast_options(store("s"));
    options.local_workers = 0;
    options.listen_port = port;
    options.checkpoint_hook = [](int completed) {
      if (completed == 3) throw std::runtime_error("simulated coordinator death");
    };
    RemoteWorkerPool doomed{spec, options};
    serve = std::thread([&]() { worker_exit = run_remote_worker(worker); });
    EXPECT_THROW(doomed.run(), std::runtime_error);
  }  // doomed's listener closes here; the worker enters its reconnect loop

  auto options = fast_options(store("s"));
  options.local_workers = 0;
  options.listen_port = port;
  options.resume = true;
  RemoteWorkerPool successor{spec, options};
  const auto report = successor.run();
  serve.join();

  EXPECT_EQ(worker_exit, 0);  // reconnected, finished, clean SHUTDOWN
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.cached, 3);  // the dead coordinator's checkpoints held
  EXPECT_EQ(report.computed, 5);
  EXPECT_EQ(store_objects(store("s")), store_objects(store("reference")));
  // Settling removed the journal: nothing left to resume.
  EXPECT_FALSE(fs::exists(coordinator_journal_path(store("s"))));
}

TEST_F(CoordinatorRecovery, ResumeRestoresTheJournaledChargeState) {
  // A journal left by a dead coordinator (here: written through the same
  // header + ledger rendering the coordinator uses) must restore under
  // resume=true — the report's retried count carries the dead
  // coordinator's charges instead of resetting the poison point's budget.
  const auto spec = tiny_sweep();
  const std::string dir = store("s");
  ResultStore{dir};  // materialize the store directory tree

  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_s = 0.01;
  policy.backoff_max_s = 0.1;
  AttemptLedger dead_ledger{8, policy};
  for (int i = 0; i < 2; ++i)
    dead_ledger.charge(0, AttemptLedger::Clock::now());
  common::write_file_atomic(
      coordinator_journal_path(dir),
      "sos-coordinator-journal v1\nspec_digest = " +
          salted_digest(spec.canonical()) + "\n" +
          dead_ledger.render_journal());

  auto options = fast_options(dir);
  options.local_workers = 1;
  options.resume = true;
  options.retry = policy;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.retried, 2);  // restored, not re-earned
  EXPECT_FALSE(fs::exists(coordinator_journal_path(dir)));
}

TEST_F(CoordinatorRecovery, FreshRunDiscardsAStaleJournal) {
  const auto spec = tiny_sweep();
  const std::string dir = store("s");
  ResultStore{dir};
  common::write_file_atomic(coordinator_journal_path(dir),
                            "sos-coordinator-journal v1\nspec_digest = " +
                                salted_digest(spec.canonical()) +
                                "\nsos-attempt-ledger v1\nretried = 7\n");

  auto options = fast_options(dir);
  options.local_workers = 1;  // resume stays false: a fresh campaign
  const auto report = RemoteWorkerPool{spec, options}.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.retried, 0);  // the stale journal was discarded, not read
  EXPECT_FALSE(fs::exists(coordinator_journal_path(dir)));
}

TEST_F(CoordinatorRecovery, MismatchedSpecJournalIsIgnoredOnResume) {
  // A journal from some other campaign (different spec digest) must not
  // poison this one's charge state.
  const auto spec = tiny_sweep();
  const std::string dir = store("s");
  ResultStore{dir};
  common::write_file_atomic(
      coordinator_journal_path(dir),
      "sos-coordinator-journal v1\nspec_digest = 0123456789abcdef\n"
      "sos-attempt-ledger v1\nretried = 7\nfailures = 0 3\n");

  auto options = fast_options(dir);
  options.local_workers = 1;
  options.resume = true;
  const auto report = RemoteWorkerPool{spec, options}.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.retried, 0);
}

TEST_F(CoordinatorRecovery, BitflippedObjectsAreFsckedAndHealedByARerun) {
  // object_bitflip chaos at p=1.0 damages every stored object at rest.
  // The campaign itself "completes" (the executor's job is delivery), but
  // output assembly refuses corrupt state, fsck quarantines every damaged
  // object, and one clean re-run heals the store to byte-identical.
  const auto spec = tiny_sweep();
  compute_reference(spec);

  auto options = fast_options(store("s"));
  options.local_workers = 1;
  options.chaos.object_bitflip = 1.0;
  options.chaos.max_fires_per_point = 1;
  RemoteWorkerPool damaged{spec, options};
  const auto report = damaged.run();
  EXPECT_TRUE(report.complete());
  // The store is poisoned: assembling outputs must throw, not emit garbage
  // (this is the CLI's exit-5 path).
  EXPECT_THROW(damaged.runner().sweep_csv(), StoreCorruptError);

  ResultStore store_handle{store("s")};
  const auto findings = store_handle.fsck();
  EXPECT_EQ(findings.size(), 8u);  // every object was flipped
  for (const auto& finding : findings)
    EXPECT_TRUE(store_handle.has_corrupt(finding.digest));

  auto heal = fast_options(store("s"));
  heal.local_workers = 1;
  RemoteWorkerPool healed{spec, heal};
  const auto heal_report = healed.run();
  EXPECT_TRUE(heal_report.complete());
  EXPECT_EQ(heal_report.computed, 8);  // nothing served from the damaged cache
  EXPECT_TRUE(store_handle.fsck().empty());
  EXPECT_EQ(store_objects(store("s")), store_objects(store("reference")));
}

TEST_F(FleetAuth, WrongKeyWorkerRejectedWhileTheFleetCompletes) {
  // The coordinator runs under the built-in default key; an external
  // worker presents a different pre-shared key. The worker must exit 1
  // having surfaced the typed rejection, and the campaign must complete
  // on the coordinator's own loopback child regardless.
  const auto spec = tiny_sweep();
  const std::string wrong_key = (root_ / "wrong.key").string();
  std::ofstream{wrong_key} << "not the fleet key\n";

  auto options = fast_options(store("s"));
  options.local_workers = 1;
  RemoteWorkerPool pool{spec, options};

  RemoteWorkerConfig worker;
  worker.port = pool.port();
  worker.heartbeat_interval_s = 0.02;
  worker.key_file = wrong_key;
  worker.max_reconnects = 0;
  int worker_exit = -1;
  std::thread serve([&]() { worker_exit = run_remote_worker(worker); });

  const auto report = pool.run();
  serve.join();
  EXPECT_EQ(worker_exit, 1);  // rejected: wrong key is an operator error
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
}

TEST_F(FleetAuth, LegacyV1WorkerGetsTheGoldenUnsealedReject) {
  // Downgrade pin: a v1 peer speaks 13 unsealed HELLO bytes. The v2
  // coordinator must answer with the EXACT documented reason — and send
  // it unsealed, because a v1 peer cannot verify a MAC. The campaign
  // completes on the real (v2) loopback child meanwhile.
  const auto spec = tiny_sweep();
  auto options = fast_options(store("s"));
  options.local_workers = 1;
  RemoteWorkerPool pool{spec, options};
  const std::uint16_t port = pool.port();

  std::string reject_reason;
  bool connected = false;
  std::thread v1_client([&]() {
    auto sock = common::Socket::connect_ipv4("127.0.0.1", port);
    if (!sock) return;
    connected = true;
    // v1 HELLO: [tag 0x01][u32le version = 1][u64le pid], no MAC.
    std::string hello(1, '\x01');
    common::append_u32le(hello, 1);
    for (int i = 0; i < 8; ++i) hello.push_back('\x00');
    if (!common::write_frame(sock->fd(), hello)) return;
    // Read frames until the REJECT arrives (bounded, never hangs the test).
    common::FrameBuffer frames;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      char buffer[4096];
      const long n = sock->read_some(buffer, sizeof(buffer));
      if (n > 0) {
        frames.feed(buffer, static_cast<std::size_t>(n));
        if (const auto frame = frames.next_frame()) {
          if (const auto reason = parse_reject(*frame)) {
            reject_reason = *reason;
            return;
          }
        }
      } else if (n == 0 || n == -2) {
        return;  // coordinator closed on us without the reject: test fails
      } else {
        ::pollfd waiter{sock->fd(), POLLIN, 0};
        ::poll(&waiter, 1, 50);
      }
    }
  });

  const auto report = pool.run();
  v1_client.join();
  EXPECT_TRUE(connected);
  EXPECT_EQ(reject_reason,
            "protocol version mismatch: coordinator speaks 2, worker spoke 1");
  EXPECT_EQ(reject_reason, reject_version_mismatch(1));
  EXPECT_TRUE(report.complete());
}

}  // namespace
}  // namespace sos::campaign
