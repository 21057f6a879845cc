// ChaosConfig — seeded, test-only worker fault injection for the
// out-of-process executor (RemoteWorkerPool and its serve workers).
//
// Each probability selects one way for a worker to misbehave immediately
// before computing a point. Draws are deterministic per (seed, point
// index, attempt) — a single stream keyed on (seed, index) advanced to the
// attempt — so a schedule replays identically however the executor
// interleaves work, and every chaos test pins a reproducible scenario.
//
// Two fault families:
//   * Process faults (sigkill/hang/bad_exit/truncate) — the worker process
//     itself dies, stops, exits with a bogus code, or lies with a torn
//     result frame. They apply to forked loopback and remote serve workers
//     alike.
//   * Network faults (net_drop/net_partition/net_torn/net_duplicate) —
//     the failure modes the SOS paper studies in its overlay, applied to
//     the executor's own transport: link loss, partitions and duplicate
//     delivery.
//   * Coordinator faults (coordinator_kill/object_bitflip) — PR 10's
//     survivability drills, acted on by the *coordinator* when a result
//     arrives: SIGKILL itself mid-run (crash-recovery under --resume), or
//     flip one bit in the just-written store object (at-rest corruption
//     for fsck to find). Workers treat them as inert, so both sides of a
//     shared (seed, point, attempt) draw agree on which family fires.
#pragma once

#include <cstdint>

namespace sos::campaign {

/// Exit code a chaos "bogus exit" worker terminates with (test-visible so
/// failure reasons can be asserted against it).
inline constexpr int kChaosBadExitCode = 41;

struct ChaosConfig {
  std::uint64_t seed = 0x5055ULL;

  // --- Process faults (any serve worker). ---
  double sigkill = 0.0;   // raise(SIGKILL): instant worker death
  double hang = 0.0;      // raise(SIGSTOP): silent hang (heartbeat/deadline)
  double bad_exit = 0.0;  // _exit(kChaosBadExitCode) without computing
  double truncate = 0.0;  // write half a result frame, then exit "cleanly"

  // --- Network faults (the worker's TCP connection). ---
  double net_drop = 0.0;       // abruptly close the connection, reconnect
  double net_partition = 0.0;  // heartbeat blackhole for net_partition_s,
                               // then deliver late (possibly duplicated)
  double net_torn = 0.0;       // torn TCP frame, then drop the connection
  double net_duplicate = 0.0;  // deliver the result frame twice
  double net_partition_s = 0.3;  // blackhole duration for net_partition

  // --- Coordinator faults (acted on by the coordinator at result
  // arrival; inert for workers). ---
  double coordinator_kill = 0.0;  // charge the point, persist the journal,
                                  // raise(SIGKILL) — resume must recover
  double object_bitflip = 0.0;    // flip one deterministic bit in the
                                  // freshly written store object

  /// Faults fire on at most this many attempts per point (so a chaotic
  /// point deterministically succeeds once retried past them). 0 means
  /// unlimited: every attempt re-rolls, and a certain fault (p=1.0) drives
  /// the point into quarantine.
  int max_fires_per_point = 1;

  bool enabled() const noexcept {
    return sigkill > 0 || hang > 0 || bad_exit > 0 || truncate > 0 ||
           net_drop > 0 || net_partition > 0 || net_torn > 0 ||
           net_duplicate > 0 || coordinator_kill > 0 || object_bitflip > 0;
  }

  /// Throws std::invalid_argument ("(accepted:)" style) on out-of-range
  /// probabilities, a non-positive partition duration, or a negative
  /// max_fires_per_point.
  void validate() const;
};

/// Which fault (if any) fires for this (point, attempt) under `chaos`.
/// The network actions extend the draw chain *after* the process faults,
/// and the coordinator actions extend it after the network ones, so a
/// config with zero probabilities in the newer families replays older
/// schedules byte-for-byte.
enum class ChaosAction {
  kNone,
  kSigkill,
  kHang,
  kBadExit,
  kTruncate,
  kNetDrop,
  kNetPartition,
  kNetTorn,
  kNetDuplicate,
  kCoordinatorKill,
  kObjectBitflip,
};

ChaosAction chaos_action(const ChaosConfig& chaos, int point_index,
                         int attempt);

}  // namespace sos::campaign
