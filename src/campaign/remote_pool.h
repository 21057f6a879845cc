// RemoteWorkerPool — the campaign engine's out-of-process executor.
//
// Workers are `sos_campaign serve` processes talking TCP to the
// coordinator: forked loopback children by default, plus any external
// serve processes that connect. They register (HELLO/WELCOME), heartbeat,
// pull work-stealing shards, compute each point IN ORDER via
// compute_points — the same function in-process runs use, which is what
// keeps the store byte-identical across executors — and stream results
// back over the authenticated transport (remote_protocol v2).
//
// Every protocol decision lives in campaign::Coordinator (coordinator.h),
// a core with no IO and no clock. run() is its driver: it forks and
// respawns `local_workers` loopback children, polls the listener (bound in
// the constructor, so port() is valid before run()) and every session,
// feeds bytes, hang-ups and ticks to the core, applies the actions that
// come back, and on settle half-closes and drains every session within a
// 2 s grace window. If no worker is registered for
// `registration_timeout_s` while work remains, run() throws
// FleetUnreachableError; the CLI maps it (and a serve worker that can
// never connect) to exit code 4.
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

  /// Per-point progress deadline, restarted on every ASSIGN and RESULT: a
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

  /// Pre-shared key file for the v2 authenticated transport (empty: the
  /// built-in default material). External serve workers must pass the same
  /// file via --key-file.
  std::string key_file;

  /// Load the journal a crashed coordinator left in the store, so charging
  /// resumes where it stopped instead of granting every poison point a
  /// fresh retry budget. A missing or mismatched journal is ignored; the
  /// journal is removed once the campaign settles.
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
  /// computed, or quarantined); previously quarantined points get a fresh
  /// set of attempts. Worker faults are charged, retried or quarantined,
  /// never fatal. Throws FleetUnreachableError if the fleet never shows up
  /// (or vanishes) for registration_timeout_s.
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

  /// Throws std::invalid_argument ("(accepted:)" style) on a non-positive
  /// heartbeat interval or an invalid chaos config.
  void validate() const;
};

int run_remote_worker(const RemoteWorkerConfig& config);

/// Where a coordinator journals its attempt/charge state inside a store
/// directory ("<store_dir>/coordinator.journal"). Exposed so the CLI and
/// tests can check for leftover journals without hardcoding the name.
std::string coordinator_journal_path(const std::string& store_dir);

}  // namespace sos::campaign
