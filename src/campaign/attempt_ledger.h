// AttemptLedger — the retry/backoff/quarantine bookkeeping of the
// out-of-process executor (RemoteWorkerPool).
//
// The promise: a worker fault charges exactly one point (the poison point
// that was in flight), charged points back off exponentially with
// deterministic jitter, and a point that exhausts 1 + max_retries attempts
// is quarantined instead of looping forever. The arithmetic and its
// journal format (what a crashed coordinator restores under --resume) live
// in this one tested class, apart from any transport.
//
// The ledger owns only the bookkeeping: failure counts, eligibility
// gates, the jitter RNG and the retry tally. Queue management and the
// store-side quarantine record stay with the executor, which knows its
// own transport.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace sos::campaign {

/// The charging knobs of RemotePoolOptions.
struct RetryPolicy {
  /// Charged failures a point survives before quarantine. A point is
  /// attempted at most 1 + max_retries times.
  int max_retries = 2;

  /// Retry backoff: min(backoff_max_s, backoff_base_s * 2^(failures-1)),
  /// stretched by a deterministic jitter factor in [1, 1.5) drawn from
  /// jitter_seed.
  double backoff_base_s = 0.05;
  double backoff_max_s = 2.0;
  std::uint64_t jitter_seed = 0x5055ULL;

  /// Throws std::invalid_argument ("(accepted:)" style) on a negative
  /// retry budget or negative backoff values.
  void validate() const;
};

class AttemptLedger {
 public:
  using Clock = std::chrono::steady_clock;

  /// What a charged failure means for the point.
  enum class Verdict {
    kRetry,       // backed off; eligible again at eligible_at(index)
    kQuarantine,  // attempts exhausted; the executor records the failure
  };

  /// A ledger over `total_points` points, all starting with zero failures
  /// and immediately eligible. Validates the policy.
  AttemptLedger(int total_points, RetryPolicy policy);

  /// Charges one failed attempt to `index` at time `now`. kRetry arms the
  /// backoff gate (and counts toward retried()); kQuarantine means the
  /// point just ran out of attempts.
  Verdict charge(int index, Clock::time_point now);

  /// Charged failures so far — also the attempt number the NEXT execution
  /// of this point carries (chaos draws key on it).
  int failures(int index) const;

  /// The backoff gate: the point may not be assigned before this instant.
  Clock::time_point eligible_at(int index) const;
  bool eligible(int index, Clock::time_point now) const {
    return eligible_at(index) <= now;
  }

  /// Total kRetry verdicts issued (the CampaignReport::retried figure).
  int retried() const noexcept { return retried_; }

  const RetryPolicy& policy() const noexcept { return policy_; }

  /// Round-trippable snapshot of the charge state ("sos-attempt-ledger v1"
  /// header, the retry tally, then one "failures = <index> <count>" line
  /// per charged point). This is what the coordinator journals through
  /// common::write_file_atomic so a SIGKILLed coordinator restarted with
  /// --resume charges each point from where it left off instead of
  /// granting every poison point a fresh retry budget.
  std::string render_journal() const;

  /// Rebuilds charge state from render_journal() output. Restored points
  /// are immediately eligible (their backoff expired with the dead
  /// coordinator). Returns false — leaving the ledger untouched — on a
  /// malformed journal or one whose indices do not fit this ledger.
  bool restore_journal(const std::string& text);

 private:
  Clock::duration backoff_for(int failure_count);

  struct State {
    int failures = 0;
    Clock::time_point eligible_at{};  // epoch = always eligible
  };

  RetryPolicy policy_;
  std::vector<State> state_;
  common::Rng jitter_rng_;
  int retried_ = 0;
};

}  // namespace sos::campaign
