// Coordinator core: every decision of the distributed campaign protocol,
// driven on a virtual clock — no sockets, no fork, no sleeps. A fake worker
// hands sealed frames straight to receive(); the actions that come back
// are opened and asserted, and each failure-matrix row of
// docs/CAMPAIGNS.md is pinned by the exact reason string its quarantine
// record carries (max_retries = 0 quarantines on the first charge).
#include "campaign/coordinator.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/digest.h"
#include "campaign/remote_protocol.h"
#include "common/files.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;
using Actions = Coordinator::Actions;
using Kind = CoordinatorAction::Kind;

/// 2 x 2 x 2 x 1 = 8 points, the grid the end-to-end pool tests use.
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

/// The virtual clock: `seconds` after an arbitrary origin.
Coordinator::TimePoint at(double seconds) {
  return Coordinator::TimePoint{} + std::chrono::hours(1) +
         std::chrono::duration_cast<Coordinator::Clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// One frame on the wire: [u32le length][payload].
std::string wire(const std::string& payload) {
  std::string out;
  common::append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  return out + payload;
}

/// A worker's half of one session: the bytes it would write.
struct FakeWorker {
  Coordinator::SessionId id = 0;
  std::uint64_t challenge = 0;
  common::MacKey base = load_base_key("");

  std::uint64_t pid() const { return 1000 + id; }
  common::MacKey key() const {
    return common::derive_session_key(base, challenge);
  }
  std::string hello() const {
    Hello hello;
    hello.pid = pid();
    hello.challenge = challenge;
    return wire(seal_frame(encode_hello(hello), base));
  }
  std::string sealed(const std::string& inner) const {
    return wire(seal_frame(inner, key()));
  }
  std::string result(int index, const std::string& bytes = "bytes") const {
    return sealed(encode_result(index, bytes));
  }
  std::string heartbeat() const { return sealed(encode_heartbeat()); }
};

FakeWorker worker(Coordinator::SessionId id) {
  return FakeWorker{id, 0xc0ffee00 + id};
}

/// The inner messages `actions` sends to `session`, opened under `key`
/// ("<unverified>" for one that does not open under it).
std::vector<std::string> sent(const Actions& actions,
                              Coordinator::SessionId session,
                              const common::MacKey& key) {
  std::vector<std::string> out;
  for (const auto& action : actions)
    if (action.kind == Kind::kSend && action.session == session)
      out.push_back(open_frame(action.frame, key).value_or("<unverified>"));
  return out;
}
std::vector<std::string> sent(const Actions& actions, const FakeWorker& w) {
  return sent(actions, w.id, w.key());
}

/// Every point ASSIGNed to `w` in `actions`, as "index@attempt".
std::vector<std::string> assigned(const Actions& actions,
                                  const FakeWorker& w) {
  std::vector<std::string> out;
  for (const auto& inner : sent(actions, w)) {
    if (message_type(inner) != MessageType::kAssign) continue;
    const auto shard = parse_assign(inner);
    for (const Assignment& a : shard.value())
      out.push_back(std::to_string(a.index) + "@" + std::to_string(a.attempt));
  }
  return out;
}

bool has(const Actions& actions, Kind kind, std::uint64_t who) {
  return std::any_of(actions.begin(), actions.end(), [&](const auto& a) {
    return a.kind == kind && (kind == Kind::kKill ? a.pid : a.session) == who;
  });
}

using Shard = std::vector<std::string>;

class CoordinatorCore : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_coordinator_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override {
    core_.reset();
    fs::remove_all(root_);
  }

  /// The pool defaults on a fresh store; quarantine on the first charge so
  /// each failure's reason string is on record.
  RemotePoolOptions options() const {
    RemotePoolOptions options;
    options.store_dir = (root_ / "store").string();
    options.points_per_assign = 2;
    options.retry.max_retries = 0;
    return options;
  }

  Coordinator& start(const RemotePoolOptions& options) {
    core_.reset();
    runner_ = std::make_unique<CampaignRunner>(
        tiny_sweep(), CampaignOptions{options.store_dir, nullptr, nullptr});
    core_ = std::make_unique<Coordinator>(*runner_, options, at(0));
    return *core_;
  }

  /// Connects and registers `w` at time `t`; returns the HELLO's actions.
  Actions join(const FakeWorker& w, double t) {
    EXPECT_TRUE(core_->accept(w.id, at(t)).empty());
    return core_->receive(w.id, w.hello(), at(t));
  }

  /// The reason on point `index`'s quarantine record ("" when it has none).
  std::string reason(int index) const {
    for (const auto& failure : core_->report().failures)
      if (failure.index == index) return failure.reason;
    return "";
  }

  std::unique_ptr<CampaignRunner> runner_;
  std::unique_ptr<Coordinator> core_;
  fs::path root_;
};

TEST_F(CoordinatorCore, RegisteredWorkersStealShardsInExpansionOrder) {
  auto opts = options();
  opts.points_per_assign = 3;
  Coordinator& core = start(opts);
  const FakeWorker a = worker(1), b = worker(2);
  const auto welcome = sent(join(a, 0), a);
  ASSERT_EQ(welcome.size(), 1u);
  EXPECT_EQ(parse_welcome(welcome[0]), runner_->spec().canonical());
  join(b, 0);

  const auto first = core.tick(at(0.01));
  EXPECT_EQ(assigned(first, a), (Shard{"0@0", "1@0", "2@0"}));
  EXPECT_EQ(assigned(first, b), (Shard{"3@0", "4@0", "5@0"}));
  EXPECT_TRUE(assigned(core.tick(at(0.02)), a).empty());  // still busy

  // Heartbeats reach every live session each interval.
  const auto beat = core.tick(at(0.05));
  EXPECT_EQ(sent(beat, a), (std::vector<std::string>{encode_heartbeat()}));
  EXPECT_EQ(sent(beat, b), (std::vector<std::string>{encode_heartbeat()}));

  // A worker that finishes its shard steals the next one.
  for (const int i : {0, 1, 2}) core.receive(a.id, a.result(i), at(0.06));
  EXPECT_EQ(assigned(core.tick(at(0.06)), a), (Shard{"6@0", "7@0"}));
  EXPECT_EQ(core.report().computed, 3);
  EXPECT_EQ(core.next_wakeup(), at(0.1));  // nothing queued: the next beat
}

TEST_F(CoordinatorCore, BusyFleetSleepsUntilTheNextBeatDespiteAQueue) {
  Coordinator& core = start(options());
  const FakeWorker a = worker(1);
  join(a, 0);
  ASSERT_EQ(assigned(core.tick(at(0.01)), a), (Shard{"0@0", "1@0"}));
  // Six eligible points wait, but the only live session is busy: nothing
  // can be assigned before a RESULT arrives, which wakes the poll loop.
  EXPECT_EQ(core.next_wakeup(), at(0.05));
  // Idle again, the queue is due at once.
  core.receive(a.id, a.result(0) + a.result(1), at(0.02));
  EXPECT_LE(core.next_wakeup(), at(0.02));
}

TEST_F(CoordinatorCore, LegacyAndWrongKeyPeersAreRejectedBeforeAnyAssign) {
  Coordinator& core = start(options());
  // A v1 peer: 13 unsealed HELLO bytes. Its REJECT goes out unsealed.
  std::string v1(1, '\x01');
  common::append_u32le(v1, 1);
  v1.append(8, '\0');
  core.accept(1, at(0));
  const auto v1_actions = core.receive(1, wire(v1), at(0));
  ASSERT_EQ(v1_actions.size(), 2u);
  EXPECT_EQ(v1_actions[0].frame,
            encode_reject("protocol version mismatch: coordinator speaks 2, "
                          "worker spoke 1"));
  EXPECT_TRUE(has(v1_actions, Kind::kClose, 1));

  // A wrong pre-shared key: the REJECT is sealed under the fleet's key.
  FakeWorker stranger = worker(2);
  stranger.base = common::derive_mac_key("not the fleet key\n");
  const auto bad_mac = join(stranger, 0);
  EXPECT_EQ(sent(bad_mac, 2, load_base_key("")),
            (std::vector<std::string>{encode_reject(kRejectBadHelloMac)}));
  EXPECT_TRUE(has(bad_mac, Kind::kClose, 2));

  // Neither ever sees work, heartbeats or a reply again.
  for (const double t : {0.1, 1.0, 5.0}) {
    const auto later = core.tick(at(t));
    EXPECT_TRUE(std::none_of(later.begin(), later.end(), [](const auto& a) {
      return a.session == 1 || a.session == 2;
    }));
  }
  EXPECT_TRUE(core.receive(2, stranger.heartbeat(), at(5)).empty());
  EXPECT_EQ(core.report().retried, 0);
}

TEST_F(CoordinatorCore, MalformedOrSilentRegistrationIsClosedUncharged) {
  Coordinator& core = start(options());
  core.accept(1, at(0));
  const auto garbage =
      core.receive(1, wire(seal_frame("not a hello", load_base_key(""))),
                   at(0));  // malformed registration frame
  EXPECT_TRUE(has(garbage, Kind::kClose, 1));

  core.accept(2, at(0));  // never says HELLO
  EXPECT_TRUE(core.tick(at(1.99)).empty());
  const auto silent = core.tick(at(2.0));
  EXPECT_TRUE(has(silent, Kind::kClose, 2));
  EXPECT_FALSE(std::any_of(silent.begin(), silent.end(), [](const auto& a) {
    return a.kind == Kind::kKill;
  }));
  EXPECT_TRUE(core.report().failures.empty());
}

TEST_F(CoordinatorCore, HangUpChargesOnlyTheFirstUnfinishedPoint) {
  auto opts = options();
  opts.points_per_assign = 4;
  opts.retry.max_retries = 2;
  Coordinator& core = start(opts);
  const FakeWorker a = worker(1), b = worker(2);
  join(a, 0);
  ASSERT_EQ(assigned(core.tick(at(0)), a),
            (Shard{"0@0", "1@0", "2@0", "3@0"}));
  core.receive(a.id, a.result(0), at(0.01));
  EXPECT_TRUE(has(core.hang_up(a.id, at(0.01)), Kind::kClose, a.id));
  EXPECT_EQ(core.report().retried, 1);  // point 1, in flight; not 2 or 3

  // The innocents requeue free, ahead of the line; the poison point backs
  // off and returns carrying its attempt.
  join(b, 0.02);
  EXPECT_EQ(assigned(core.tick(at(0.02)), b),
            (Shard{"2@0", "3@0", "4@0", "5@0"}));
  for (const int i : {2, 3, 4, 5}) core.receive(b.id, b.result(i), at(1));
  EXPECT_EQ(assigned(core.tick(at(1)), b), (Shard{"1@1", "6@0", "7@0"}));
}

TEST_F(CoordinatorCore, TornFrameAtHangUpIsChargedAsTruncated) {
  Coordinator& core = start(options());
  const FakeWorker a = worker(1);
  join(a, 0);
  core.tick(at(0));
  const std::string frame = a.result(0);
  core.receive(a.id, frame.substr(0, frame.size() / 2), at(0.01));
  EXPECT_TRUE(has(core.hang_up(a.id, at(0.01)), Kind::kClose, a.id));
  EXPECT_EQ(reason(0), "truncated result frame");
  EXPECT_EQ(reason(1), "");  // the innocent second point
}

TEST_F(CoordinatorCore, ConnectionLossIsChargedAsConnectionLost) {
  Coordinator& core = start(options());
  const FakeWorker a = worker(1);
  join(a, 0);
  core.tick(at(0));
  core.hang_up(a.id, at(0.01));
  EXPECT_EQ(reason(0), "connection lost");
  EXPECT_TRUE(core.hang_up(a.id, at(0.02)).empty());  // already forgotten
}

TEST_F(CoordinatorCore, ProtocolViolationsAreEvictedWithTypedReasons) {
  Coordinator& core = start(options());
  const auto evicted_for = [&](Coordinator::SessionId id,
                               const std::string& bytes) {
    const FakeWorker w = worker(id);
    join(w, 0);
    const Shard shard = assigned(core.tick(at(0)), w);
    EXPECT_EQ(shard.size(), 2u);
    EXPECT_TRUE(has(core.receive(id, bytes, at(0.01)), Kind::kClose, id));
    return reason(std::stoi(shard.at(0)));
  };
  FakeWorker forger = worker(1);
  forger.challenge = 1;  // a session key nobody agreed on
  EXPECT_EQ(evicted_for(1, forger.result(0)), "bad frame MAC");
  std::string impossible;
  common::append_u32le(impossible, 0xffffffffu);  // length past the cap
  EXPECT_EQ(evicted_for(2, impossible + "junk"), "corrupt result frame stream");
  EXPECT_EQ(evicted_for(3, worker(3).sealed(encode_welcome("x"))),
            "corrupt result frame stream");  // not worker traffic
  EXPECT_EQ(evicted_for(4, worker(4).result(99)),
            "corrupt result frame stream");  // no such point
}

TEST_F(CoordinatorCore, HeartbeatSilenceSuspendsKillsAndCharges) {
  Coordinator& core = start(options());
  const FakeWorker a = worker(1);
  join(a, 0);
  core.tick(at(0));
  core.receive(a.id, a.heartbeat(), at(1));
  EXPECT_FALSE(has(core.tick(at(2.99)), Kind::kKill, a.pid()));
  const auto silent = core.tick(at(3));
  EXPECT_TRUE(has(silent, Kind::kKill, a.pid()));
  EXPECT_FALSE(has(silent, Kind::kClose, a.id));  // suspended, not closed
  EXPECT_EQ(reason(0), "heartbeat silence beyond 2.00s");
  // A suspended session gets neither heartbeats nor work.
  EXPECT_TRUE(sent(core.tick(at(3.1)), a).empty());
}

TEST_F(CoordinatorCore, PartitionedWorkerDeliversLateRevivesAndIsStoredOnce) {
  auto opts = options();
  opts.retry.max_retries = 2;
  std::vector<int> checkpoints;
  opts.checkpoint_hook = [&](int computed) { checkpoints.push_back(computed); };
  Coordinator& core = start(opts);
  const FakeWorker a = worker(1), b = worker(2);
  join(a, 0);
  ASSERT_EQ(assigned(core.tick(at(0)), a), (Shard{"0@0", "1@0"}));
  EXPECT_TRUE(has(core.tick(at(2)), Kind::kKill, a.pid()));  // partitioned
  EXPECT_EQ(core.report().retried, 1);
  join(b, 2);
  EXPECT_EQ(assigned(core.tick(at(2)), b), (Shard{"1@0", "2@0"}));

  // The partition heals: the late result is stored and the session lives.
  core.receive(a.id, a.result(0), at(2.5));
  EXPECT_EQ(checkpoints, (std::vector<int>{1}));
  EXPECT_EQ(assigned(core.tick(at(2.5)), a), (Shard{"3@0", "4@0"}));
  // Duplicates — a's repeat, and b's copy of the point a also delivered
  // late — are no-ops; the requeued point 0 is never handed out again.
  core.receive(a.id, a.result(0) + a.result(1), at(2.6));
  core.receive(b.id, b.result(1) + b.result(2), at(2.6));
  EXPECT_EQ(checkpoints, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(assigned(core.tick(at(2.6)), b), (Shard{"5@0", "6@0"}));
  EXPECT_TRUE(fs::exists(runner_->store().object_path(runner_->digest(0))));
  EXPECT_EQ(core.report().computed, 3);
}

TEST_F(CoordinatorCore, StuckWorkerIsClosedAtThePointDeadline) {
  auto opts = options();
  opts.point_deadline_s = 5.0;
  Coordinator& core = start(opts);
  const FakeWorker a = worker(1);
  join(a, 0);
  core.tick(at(0));
  // It heartbeats throughout, so only the deadline can catch it; each
  // RESULT restarts that deadline.
  for (int t = 1; t <= 8; ++t) {
    core.receive(a.id, a.heartbeat(), at(t));
    if (t == 4) core.receive(a.id, a.result(0), at(t));
    EXPECT_TRUE(core.tick(at(t)).size() <= 1u) << t;  // a heartbeat at most
  }
  EXPECT_FALSE(has(core.tick(at(8.99)), Kind::kClose, a.id));
  const auto stuck = core.tick(at(9));
  EXPECT_TRUE(has(stuck, Kind::kKill, a.pid()));
  EXPECT_TRUE(has(stuck, Kind::kClose, a.id));
  EXPECT_EQ(reason(1), "deadline 5.00s exceeded");
}

TEST_F(CoordinatorCore, EmptyFleetThrowsFleetUnreachableAtTheTimeout) {
  Coordinator& core = start(options());
  EXPECT_NO_THROW(core.tick(at(9.99)));
  try {
    core.tick(at(10));
    FAIL() << "no FleetUnreachableError";
  } catch (const FleetUnreachableError& error) {
    EXPECT_STREQ(error.what(),
                 "no registered worker for 10.00s with 8 points pending");
  }
}

TEST_F(CoordinatorCore, CoordinatorKillJournalsThenResumeNeverRefunds) {
  auto opts = options();
  opts.retry.max_retries = 1;
  opts.chaos.coordinator_kill = 1.0;
  start(opts);
  const FakeWorker a = worker(1);
  join(a, 0);
  core_->tick(at(0));
  const auto dying = core_->receive(a.id, a.result(0), at(0.1));
  ASSERT_EQ(dying.size(), 1u);
  EXPECT_EQ(dying[0].kind, Kind::kDie);
  EXPECT_FALSE(runner_->store().has(runner_->digest(0)));  // not stored
  const auto journal =
      common::read_file(coordinator_journal_path(opts.store_dir));
  ASSERT_TRUE(journal.has_value());
  EXPECT_NE(journal->find("failures = 0 1"), std::string::npos);

  // The successor resumes the journal: point 0 comes back at attempt 1,
  // and its last attempt is the only one left.
  opts.chaos = ChaosConfig{};
  opts.resume = true;
  Coordinator& successor = start(opts);
  EXPECT_EQ(successor.report().retried, 1);
  const FakeWorker b = worker(1);
  join(b, 0);
  EXPECT_EQ(assigned(successor.tick(at(0)), b), (Shard{"0@1", "1@0"}));
  successor.hang_up(b.id, at(0.1));
  EXPECT_EQ(reason(0), "connection lost");  // quarantined: 2 of 2 spent
}

TEST_F(CoordinatorCore, RestoredJournalNeverRefundsAttempts) {
  auto opts = options();
  opts.retry.max_retries = 2;
  AttemptLedger dead{8, opts.retry};
  dead.charge(0, at(0));
  dead.charge(0, at(0));
  ResultStore{opts.store_dir};
  common::write_file_atomic(coordinator_journal_path(opts.store_dir),
                            "sos-coordinator-journal v1\nspec_digest = " +
                                salted_digest(tiny_sweep().canonical()) +
                                "\n" + dead.render_journal());
  opts.resume = true;
  Coordinator& core = start(opts);
  const FakeWorker a = worker(1);
  join(a, 0);
  EXPECT_EQ(assigned(core.tick(at(0)), a), (Shard{"0@2", "1@0"}));
  core.hang_up(a.id, at(0.1));
  ASSERT_EQ(core.report().failures.size(), 1u);
  EXPECT_EQ(core.report().failures[0].attempts, 3);  // 1 + max_retries
}

TEST_F(CoordinatorCore, SettledStoreMatchesTheInProcessRunnerByteForByte) {
  const std::string reference = (root_ / "reference").string();
  CampaignRunner{tiny_sweep(), CampaignOptions{reference, nullptr, nullptr}}
      .run();

  auto opts = options();
  opts.points_per_assign = 3;
  opts.retry.max_retries = 2;
  Coordinator& core = start(opts);
  runner_->store().write_manifest(runner_->manifest_text());  // as run() does
  Actions settle;  // what the deliveries trigger: only the goodbyes
  const auto deliver = [&](const FakeWorker& w, const Actions& actions,
                           double t) {
    for (const auto& point : assigned(actions, w)) {
      const int index = std::stoi(point);
      for (auto& action : core.receive(
               w.id, w.result(index, runner_->compute_point_bytes(index)),
               at(t)))
        settle.push_back(std::move(action));
    }
  };
  FakeWorker a = worker(1), b = worker(2);
  const FakeWorker idle = worker(3);
  join(a, 0);
  join(b, 0);
  core.accept(idle.id, at(0));  // connected, never registers
  const auto first = core.tick(at(0));
  deliver(a, first, 0.1);
  // b delivers its first point twice, then drops mid-shard and returns.
  const Shard b_shard = assigned(first, b);
  const int b_first = std::stoi(b_shard.at(0));
  const std::string bytes = runner_->compute_point_bytes(b_first);
  core.receive(b.id, b.result(b_first, bytes) + b.result(b_first, bytes),
               at(0.1));
  core.hang_up(b.id, at(0.1));
  b.id = 4;
  join(b, 0.2);
  for (double t = 0.5; !core.settled() && t < 5; t += 0.5) {
    const auto actions = core.tick(at(t));
    deliver(a, actions, t);
    deliver(b, actions, t);
  }
  ASSERT_TRUE(core.settled());

  // Settle: the journal is gone and everyone connected gets SHUTDOWN —
  // under its session key, or the base key before any handshake.
  EXPECT_FALSE(fs::exists(coordinator_journal_path(opts.store_dir)));
  const std::vector<std::string> goodbye{encode_shutdown()};
  EXPECT_EQ(sent(settle, a), goodbye);
  EXPECT_EQ(sent(settle, b), goodbye);
  EXPECT_EQ(sent(settle, idle.id, load_base_key("")), goodbye);
  EXPECT_EQ(sent(core.accept(9, at(9)), 9, load_base_key("")), goodbye);
  EXPECT_TRUE(core.tick(at(9)).empty());

  const auto report = core.report();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.computed, 8);
  EXPECT_EQ(report.retried, 1);
  const ResultStore reference_store{reference};
  for (int i = 0; i < 8; ++i) {
    const std::string& digest = runner_->digest(i);
    EXPECT_EQ(common::read_file(runner_->store().object_path(digest)),
              common::read_file(reference_store.object_path(digest)))
        << i;
  }
  EXPECT_EQ(runner_->store().read_manifest(), reference_store.read_manifest());
  // A warm rerun over the settled store is settled before any event.
  EXPECT_TRUE(start(opts).settled());
}

}  // namespace
}  // namespace sos::campaign
