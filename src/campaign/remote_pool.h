// RemoteWorkerPool — the campaign engine's out-of-process executor.
//
// Workers are `sos_campaign serve` processes that talk to the coordinator
// over TCP (common::Socket/Listener): forked loopback children by default,
// plus any external serve processes that connect. They register with a
// HELLO/WELCOME handshake, exchange heartbeats, pull work-stealing shard
// assignments, and stream finished point frames back. The coordinator
// durably checkpoints each frame into the same content-addressed
// ResultStore the in-process CampaignRunner uses.
//
// Execution model:
//
//   * The listener binds in the constructor (ephemeral port by default),
//     so port() is valid before run() — tests and external workers can
//     learn where to connect first.
//   * run() forks `local_workers` loopback serve workers (they ignore
//     their Subprocess pipe and talk TCP like any remote peer), then
//     drives a single-threaded poll loop over the listener and every
//     session socket.
//   * Work-stealing: whichever registered worker has no outstanding
//     assignment is handed the next `points_per_assign` eligible pending
//     points. Workers compute IN ORDER via
//     CampaignRunner::compute_point_bytes — the same unit of work as the
//     in-process runner — which is what makes the store byte-identical
//     across executors.
//   * Liveness is symmetric heartbeats plus a per-point progress deadline.
//     A session silent past `heartbeat_timeout_s` is evicted; a session
//     that keeps heartbeating but delivers no RESULT for
//     `point_deadline_s` (a worker stuck inside compute_point_bytes, whose
//     heartbeat thread never stops) is closed. Either way its first
//     unfinished point (the poison point, since workers compute in order)
//     is charged to the AttemptLedger, the innocent remainder requeues
//     free, and a point charged past max_retries quarantines.
//   * Partition tolerance: an evicted worker may reconnect and resume
//     (fresh HELLO, fresh assignments). A result frame that arrives late
//     — after eviction, even after the point was recomputed elsewhere —
//     is accepted if the point is still pending and ignored if done;
//     duplicate delivery is harmless because the store is
//     content-addressed and put() is idempotent.
//   * Local children that exit (chaos SIGKILL, bad exit) are reaped and
//     respawned while unfinished work remains; a child whose session is
//     evicted for silence or closed at its deadline (SIGSTOP hang, stuck
//     compute) is SIGKILLed first.
//
//   * Transport is authenticated (remote_protocol v2): every frame both
//     directions is sealed under a SipHash-2-4 MAC. The handshake runs
//     under the pre-shared base key, everything after under a per-session
//     key seeded by the HELLO challenge. v1 peers and wrong-key peers get
//     typed REJECTs; a mid-session MAC failure evicts the session.
//   * The coordinator itself is crash-recoverable: every ledger mutation
//     is journaled atomically into the store
//     (<store>/coordinator.journal), so a SIGKILLed coordinator restarted
//     on the same port with resume=true picks up charges where it died,
//     surviving workers reconnect, and the settled store is byte-identical
//     to an uninterrupted run. The journal is removed on settle.
//
// If no worker is registered for `registration_timeout_s` while work
// remains, run() throws FleetUnreachableError; the CLI maps it (and a
// serve worker that can never connect) to exit code 4.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "campaign/attempt_ledger.h"
#include "campaign/chaos.h"
#include "campaign/runner.h"
#include "common/net.h"

namespace sos::campaign {

/// sos_campaign exit code for "the fleet is unreachable": the coordinator
/// saw no registered worker within its registration timeout, or a serve
/// worker exhausted its connect/reconnect budget.
inline constexpr int kExitFleetUnreachable = 4;

/// Thrown by RemoteWorkerPool::run() when no worker registers (or every
/// worker is gone) for registration_timeout_s while points are pending.
class FleetUnreachableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct RemotePoolOptions {
  std::string store_dir;

  /// Loopback serve workers the coordinator forks itself. 0 is valid:
  /// an external-workers-only coordinator that waits for `serve`
  /// processes to connect.
  int local_workers = 2;

  /// Max points per ASSIGN message (the work-stealing shard size).
  int points_per_assign = 8;

  /// Heartbeat cadence (both directions) and the silence threshold past
  /// which a session is evicted and its poison point charged.
  double heartbeat_interval_s = 0.05;
  double heartbeat_timeout_s = 2.0;

  /// Per-point progress deadline: restarted on every ASSIGN and RESULT, so
  /// it bounds single-point compute time, not whole-shard runtime. A
  /// session with work outstanding past it is closed (its local child
  /// SIGKILLed) and its poison point charged, however well it heartbeats.
  double point_deadline_s = 300.0;

  /// How long run() tolerates an empty fleet (nobody registered) while
  /// work remains before throwing FleetUnreachableError.
  double registration_timeout_s = 10.0;

  /// TCP port to listen on; 0 = kernel-assigned (read back via port()).
  /// A crash-recovery restart must pass the *same fixed port* so surviving
  /// workers' reconnect loops find the new coordinator.
  std::uint16_t listen_port = 0;

  /// Pre-shared key file for the v2 authenticated transport; empty selects
  /// the built-in default material (loopback fleets work out of the box).
  /// Forked loopback workers inherit it; external serve workers must pass
  /// the same file via --key-file.
  std::string key_file;

  /// Load the coordinator journal (attempt/charge state persisted into the
  /// store on every ledger mutation) left by a crashed coordinator, so the
  /// restarted run resumes charging where the dead one stopped instead of
  /// granting every poison point a fresh retry budget. A missing or
  /// mismatched journal is ignored (fresh ledger); the journal is removed
  /// once the campaign settles.
  bool resume = false;

  /// Retry/backoff/quarantine charging (see AttemptLedger).
  RetryPolicy retry;

  /// Test-only fault injection, forwarded to the forked loopback workers
  /// (external serve workers configure their own chaos via CLI flags).
  ChaosConfig chaos;

  /// Same contract as CampaignOptions::checkpoint_hook: invoked after each
  /// newly computed point is durable, with the running count. A throwing
  /// hook aborts run() (local children are killed and reaped); every
  /// checkpoint written so far survives.
  std::function<void(int completed)> checkpoint_hook;

  /// Throws std::invalid_argument ("(accepted:)" style) on negative
  /// worker counts, non-positive shard size/timeouts/deadline, an invalid
  /// retry policy, or an invalid chaos config.
  void validate() const;
};

class RemoteWorkerPool {
 public:
  /// Validates options, expands the spec, opens the store, and binds the
  /// listener (throws std::runtime_error if the bind fails).
  RemoteWorkerPool(ScenarioSpec spec, RemotePoolOptions options);

  /// The bound TCP port — valid immediately after construction.
  std::uint16_t port() const noexcept { return listener_.port(); }

  const CampaignRunner& runner() const noexcept { return runner_; }
  const RemotePoolOptions& options() const noexcept { return options_; }

  /// Drives the campaign to a settled report (every point cached,
  /// computed, or quarantined) across however many workers register.
  /// Previously quarantined points count as pending and get a fresh set of
  /// attempts. Worker faults — crashes, hangs, stuck points, dropped
  /// connections, partitions, torn frames, duplicate delivery — are
  /// charged/retried/quarantined, never fatal; report.retried counts
  /// charged retries and degraded() flags quarantine. Throws
  /// FleetUnreachableError if the fleet never shows up (or vanishes) for
  /// registration_timeout_s.
  CampaignReport run();

 private:
  CampaignRunner runner_;
  RemotePoolOptions options_;
  common::Listener listener_;  // after options_: init uses listen_port
};

/// One serve worker process (the `sos_campaign serve` body, also the
/// forked loopback worker body). Connects to the coordinator, registers,
/// computes assignments in order, streams results, heartbeats from a
/// background thread, and applies its own chaos schedule. Returns a
/// sos_campaign exit code: 0 after a clean SHUTDOWN, 1 on rejection or a
/// hard local error, kExitFleetUnreachable when the coordinator can
/// never be reached (or reconnection is exhausted).
struct RemoteWorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Worker-side heartbeat cadence (should match the coordinator's).
  double heartbeat_interval_s = 0.05;

  /// Total wall-clock budget for one connect (first contact and each
  /// reconnect), retried internally until it expires.
  double connect_timeout_s = 10.0;

  /// Connection-loss recoveries (chaos drops included) before giving up
  /// with kExitFleetUnreachable.
  int max_reconnects = 8;

  /// This worker's fault schedule. Draws key on (seed, point, attempt),
  /// the attempt arriving with each assignment.
  ChaosConfig chaos;

  /// Pre-shared key file (must match the coordinator's); empty selects the
  /// built-in default material.
  std::string key_file;
};

int run_remote_worker(const RemoteWorkerConfig& config);

/// Where a coordinator journals its attempt/charge state inside a store
/// directory ("<store_dir>/coordinator.journal"). Exposed so the CLI and
/// tests can check for leftover journals without hardcoding the name.
std::string coordinator_journal_path(const std::string& store_dir);

}  // namespace sos::campaign
