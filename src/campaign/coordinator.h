// Coordinator — every decision of the distributed campaign protocol, with
// no socket and no clock (RemoteWorkerPool::run() is its driver). It takes
// events (accept, receive, hang_up, tick), returns the actions to take, and
// learns the time only as their `now`, like AttemptLedger::charge; its only
// IO is store and journal writes. Tests run it on a virtual clock.
//
//   * Registration: a session's first frame must be a HELLO sealed under
//     the base key. A v1 or wrong-key peer gets its typed REJECT and is
//     closed before any ASSIGN; a valid one gets WELCOME and from then on
//     speaks under its per-session key.
//   * Work-stealing: each tick hands every idle live session the next
//     `points_per_assign` eligible pending points. Workers compute them in
//     order, so a session's first unfinished point is the poison point.
//   * Liveness: a session silent past `heartbeat_timeout_s` is suspended
//     (its socket stays open, so a partitioned worker's late RESULT still
//     lands and revives it); one with work outstanding past
//     `point_deadline_s` is closed; either way its local child is killed.
//     That, or a hang-up, charges the poison point to the AttemptLedger and
//     requeues the rest free; past max_retries a point is quarantined.
//   * Every charge rewrites <store>/coordinator.journal, so a coordinator
//     restarted with resume=true keeps the spent attempts.
//   * Settle: once every point is done or quarantined, the journal is
//     removed and every session (and every later accept) gets SHUTDOWN.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/attempt_ledger.h"
#include "campaign/remote_pool.h"
#include "common/mac.h"
#include "common/proc.h"

namespace sos::campaign {

/// One thing the driver must do on the coordinator's behalf.
struct CoordinatorAction {
  enum class Kind {
    kSend,   // write `frame` (a sealed frame payload) to `session`
    kClose,  // close `session`'s connection; the core has forgotten it
    kKill,   // SIGKILL the local child with this `pid`, if there is one
    kDie,    // SIGKILL the coordinator itself (coordinator-kill chaos)
  };
  Kind kind = Kind::kSend;
  std::uint64_t session = 0;
  std::string frame;
  std::uint64_t pid = 0;
};

class Coordinator {
 public:
  using Clock = AttemptLedger::Clock;
  using TimePoint = Clock::time_point;
  using SessionId = std::uint64_t;
  using Actions = std::vector<CoordinatorAction>;

  /// Loads the base key, restores (resume) or removes the journal, and
  /// marks stored points done; `runner` must outlive the core. `now`
  /// starts the heartbeat cadence and the registration timeout.
  Coordinator(const CampaignRunner& runner, RemotePoolOptions options,
              TimePoint now);

  /// A new connection, which the driver names `id` (never reused).
  Actions accept(SessionId id, TimePoint now);
  /// Bytes read from session `id`, in stream order.
  Actions receive(SessionId id, std::string_view bytes, TimePoint now);
  /// Session `id`'s peer is gone (EOF or reset).
  Actions hang_up(SessionId id, TimePoint now);
  /// Silence and deadline eviction, heartbeats, assignment. Throws
  /// FleetUnreachableError once no session has been live for
  /// registration_timeout_s while points are pending.
  Actions tick(TimePoint now);

  bool settled() const noexcept {
    return done_count_ + quarantine_count_ == total();
  }
  /// When the driver must tick next (now, while an eligible point waits).
  TimePoint next_wakeup() const;
  CampaignReport report() const;

 private:
  enum class State { kRegistering, kLive, kSuspended };
  struct Session {
    common::FrameBuffer frames;
    State state = State::kRegistering;
    std::uint64_t pid = 0;
    common::MacKey key;            // derived from the HELLO challenge
    std::vector<int> outstanding;  // assigned, undelivered, compute order
    TimePoint last_heard;
    TimePoint deadline;  // progress deadline while outstanding
  };
  enum class Point : char { kPending, kDone, kQuarantined };
  enum class Outcome { kContinue, kEvict, kClosed, kDie };  // of one frame

  int total() const noexcept { return static_cast<int>(points_.size()); }
  void send(Actions& out, SessionId id, const common::MacKey& key,
            const std::string& inner) const;
  void close(Actions& out, SessionId id);
  void evict(Actions& out, SessionId id, const std::string& reason,
             bool suspend, TimePoint now);
  void charge(int index, const std::string& reason, TimePoint now);
  void requeue_front(const std::vector<int>& indices);
  void assign(Actions& out, SessionId id, Session& session, TimePoint now);
  Outcome on_frame(Actions& out, SessionId id, Session& session,
                   const std::string& raw, TimePoint now);
  Outcome on_result(Actions& out, Session& session, const std::string& frame,
                    TimePoint now);
  void persist_journal() const;
  Actions finish(Actions out);  // says goodbye once the run settles

  const CampaignRunner& runner_;
  RemotePoolOptions options_;
  common::MacKey base_key_;
  AttemptLedger ledger_;
  std::string journal_path_;
  std::string journal_header_;  // header line + spec digest line
  std::vector<Point> points_;
  std::deque<int> queue_;
  int cached_ = 0, computed_ = 0, done_count_ = 0, quarantine_count_ = 0;
  std::map<SessionId, Session> sessions_;  // accept order
  std::string violation_;  // typed eviction reason set by on_frame
  TimePoint next_beat_, fleet_deadline_;
  bool said_goodbye_ = false;
};

}  // namespace sos::campaign
