#include "campaign/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "campaign/digest.h"
#include "campaign/remote_protocol.h"
#include "common/files.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace sos::campaign {

namespace {

using Kind = CoordinatorAction::Kind;

Coordinator::Clock::duration seconds(double value) {
  return std::chrono::duration_cast<Coordinator::Clock::duration>(
      std::chrono::duration<double>(value));
}

/// The chaos "object bitflip" fault: flip one deterministic bit (derived
/// from the digest) of the freshly written store object, in place —
/// simulating at-rest damage that bypasses the atomic-write protocol.
void flip_object_bit(const std::string& path, const std::string& digest) {
  auto bytes = common::read_file(path);
  if (!bytes || bytes->empty()) return;
  const std::uint64_t bit =
      common::mix64(fnv1a64(digest)) % (bytes->size() * 8);
  (*bytes)[bit / 8] = static_cast<char>(
      static_cast<unsigned char>((*bytes)[bit / 8]) ^ (1u << (bit % 8)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
}

}  // namespace

Coordinator::Coordinator(const CampaignRunner& runner,
                         RemotePoolOptions options, TimePoint now)
    : runner_(runner),
      options_(std::move(options)),
      base_key_(load_base_key(options_.key_file)),
      ledger_(static_cast<int>(runner.points().size()), options_.retry),
      journal_path_(coordinator_journal_path(runner.store().dir())),
      journal_header_("sos-coordinator-journal v1\nspec_digest = " +
                      salted_digest(runner.spec().canonical()) + "\n"),
      points_(runner.points().size(), Point::kPending),
      next_beat_(now + seconds(options_.heartbeat_interval_s)),
      fleet_deadline_(now + seconds(options_.registration_timeout_s)) {
  // A resume keeps a dead coordinator's charges: no fresh retry budgets.
  if (!options_.resume) {
    std::error_code ignored;
    std::filesystem::remove(journal_path_, ignored);  // stale: fresh run
  } else if (const auto text = common::read_file(journal_path_)) {
    if (text->starts_with(journal_header_) &&
        ledger_.restore_journal(text->substr(journal_header_.size()))) {
      SOS_LOG_INFO() << "RemoteWorkerPool: resumed coordinator journal ("
                     << ledger_.retried() << " retries charged so far)";
    } else {
      SOS_LOG_WARN() << "RemoteWorkerPool: ignoring malformed or "
                        "mismatched coordinator journal at "
                     << journal_path_;
    }
  }
  for (int i = 0; i < total(); ++i) {
    if (runner_.store().has(runner_.digest(i)))
      points_[static_cast<std::size_t>(i)] = Point::kDone;
    else
      queue_.push_back(i);  // includes previously quarantined points
  }
  cached_ = done_count_ = total() - static_cast<int>(queue_.size());
  finish({});  // an already settled store still drops its journal
}

void Coordinator::send(Actions& out, SessionId id, const common::MacKey& key,
                       const std::string& inner) const {
  out.push_back({Kind::kSend, id, seal_frame(inner, key), 0});
}

void Coordinator::close(Actions& out, SessionId id) {
  out.push_back({Kind::kClose, id, {}, 0});
  sessions_.erase(id);
}

void Coordinator::persist_journal() const {
  common::write_file_atomic(journal_path_,
                            journal_header_ + ledger_.render_journal());
}

// Requeues at the queue front, in order, what is pending and not queued.
void Coordinator::requeue_front(const std::vector<int>& indices) {
  for (auto it = indices.rbegin(); it != indices.rend(); ++it)
    if (points_[static_cast<std::size_t>(*it)] == Point::kPending &&
        std::find(queue_.begin(), queue_.end(), *it) == queue_.end())
      queue_.push_front(*it);
}

void Coordinator::charge(int index, const std::string& reason,
                         TimePoint now) {
  const auto verdict = ledger_.charge(index, now);
  persist_journal();
  if (verdict == AttemptLedger::Verdict::kRetry) {
    requeue_front({index});
    return;
  }
  runner_.store().quarantine(
      runner_.digest(index),
      PointFailure{index, runner_.points()[static_cast<std::size_t>(index)].key,
                   ledger_.failures(index), reason});
  points_[static_cast<std::size_t>(index)] = Point::kQuarantined;
  ++quarantine_count_;
}

// Charges a failed session's poison point (its first unfinished one) and
// requeues the innocent rest; only a suspended session stays open.
void Coordinator::evict(Actions& out, SessionId id, const std::string& reason,
                        bool suspend, TimePoint now) {
  Session& session = sessions_.at(id);
  std::vector<int> unfinished;
  for (const int index : session.outstanding)
    if (points_[static_cast<std::size_t>(index)] == Point::kPending)
      unfinished.push_back(index);
  session.outstanding.clear();
  if (!unfinished.empty()) {
    charge(unfinished.front(), reason, now);
    requeue_front({unfinished.begin() + 1, unfinished.end()});
  }
  if (suspend)
    session.state = State::kSuspended;
  else
    close(out, id);
}

// Hands the next eligible pending points to an idle live session.
void Coordinator::assign(Actions& out, SessionId id, Session& session,
                         TimePoint now) {
  std::vector<Assignment> shard;
  std::deque<int> waiting;
  while (!queue_.empty() &&
         shard.size() < static_cast<std::size_t>(options_.points_per_assign)) {
    const int index = queue_.front();
    queue_.pop_front();
    if (ledger_.eligible(index, now)) {
      shard.push_back(Assignment{index, ledger_.failures(index)});
    } else {
      waiting.push_back(index);
    }
  }
  queue_.insert(queue_.begin(), waiting.begin(), waiting.end());
  if (shard.empty()) return;
  send(out, id, session.key, encode_assign(shard));
  for (const Assignment& assignment : shard)
    session.outstanding.push_back(assignment.index);
  session.deadline = now + seconds(options_.point_deadline_s);
}

Coordinator::Outcome Coordinator::on_frame(Actions& out, SessionId id,
                                           Session& session,
                                           const std::string& raw,
                                           TimePoint now) {
  session.last_heard = now;
  if (session.state == State::kRegistering) {
    // First frame must be a HELLO: a sealed v2 one under the base key, or
    // a legacy v1 one (13 unsealed bytes) that earns a readable REJECT.
    const auto inspection = inspect_hello(raw, base_key_);
    switch (inspection.verdict) {
      case HelloVerdict::kOk:
        break;
      case HelloVerdict::kVersionMismatch: {
        std::string reject =
            encode_reject(reject_version_mismatch(inspection.spoken_version));
        // A v1 peer cannot open a sealed frame; its REJECT goes out raw.
        if (!inspection.legacy_unsealed) reject = seal_frame(reject, base_key_);
        out.push_back({Kind::kSend, id, std::move(reject), 0});
        close(out, id);
        return Outcome::kClosed;
      }
      case HelloVerdict::kBadMac:
        // Wrong pre-shared key. The peer cannot verify this REJECT (no
        // shared key to verify under) but surfaces the reason via its
        // unverified peek before exiting.
        send(out, id, base_key_, encode_reject(kRejectBadHelloMac));
        close(out, id);
        return Outcome::kClosed;
      case HelloVerdict::kMalformed:
        violation_ = "malformed registration frame";
        return Outcome::kEvict;
    }
    session.pid = inspection.hello.pid;
    session.key =
        common::derive_session_key(base_key_, inspection.hello.challenge);
    session.state = State::kLive;
    send(out, id, session.key, encode_welcome(runner_.spec().canonical()));
    return Outcome::kContinue;
  }
  const auto frame = open_frame(raw, session.key);
  if (!frame) {
    violation_ = kBadFrameMacReason;
    return Outcome::kEvict;
  }
  session.state = State::kLive;  // verified: a suspended session revives
  const auto type = message_type(*frame);
  if (type == MessageType::kResult) return on_result(out, session, *frame, now);
  // Anything but a heartbeat is not worker-to-coordinator traffic.
  return type == MessageType::kHeartbeat ? Outcome::kContinue : Outcome::kEvict;
}

// Any valid index not yet done is stored — even a late one for a point
// requeued or quarantined meanwhile; a duplicate is a no-op.
Coordinator::Outcome Coordinator::on_result(Actions& out, Session& session,
                                            const std::string& frame,
                                            TimePoint now) {
  const auto result = parse_result(frame);
  if (!result || result->index < 0 || result->index >= total())
    return Outcome::kEvict;
  const int index = result->index;
  Point& point = points_[static_cast<std::size_t>(index)];
  std::erase(session.outstanding, index);
  session.deadline = now + seconds(options_.point_deadline_s);
  if (point == Point::kDone) return Outcome::kContinue;  // already durable
  // Coordinator-side chaos shares the worker's (seed, point, attempt)
  // draw; each side acts only on its own fault family.
  const ChaosAction fault =
      chaos_action(options_.chaos, index, ledger_.failures(index));
  if (fault == ChaosAction::kCoordinatorKill) {
    // The survivability drill: charge (so a resumed coordinator's draw
    // moves past this fire), journal, and die without storing the result.
    (void)ledger_.charge(index, now);
    persist_journal();
    out.push_back({Kind::kDie, 0, {}, 0});
    return Outcome::kDie;
  }
  const std::string& digest = runner_.digest(index);
  runner_.store().put(digest, result->bytes);
  if (fault == ChaosAction::kObjectBitflip)
    flip_object_bit(runner_.store().object_path(digest), digest);
  if (point == Point::kQuarantined) --quarantine_count_;  // put() cleared it
  point = Point::kDone;
  ++done_count_;
  ++computed_;
  std::erase(queue_, index);
  if (options_.checkpoint_hook) options_.checkpoint_hook(computed_);
  return Outcome::kContinue;
}

Coordinator::Actions Coordinator::accept(SessionId id, TimePoint now) {
  Actions out;
  if (said_goodbye_) {
    // A reconnect after settle never handshook: its goodbye rides the
    // base key (workers accept base-sealed SHUTDOWN and REJECT only).
    send(out, id, base_key_, encode_shutdown());
  } else {
    sessions_[id].last_heard = now;
  }
  return out;
}

Coordinator::Actions Coordinator::receive(SessionId id, std::string_view bytes,
                                          TimePoint now) {
  Actions out;
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return out;  // closed, or settled: drained
  Session& session = it->second;
  session.frames.feed(bytes.data(), bytes.size());
  violation_.clear();
  Outcome outcome = Outcome::kContinue;
  while (outcome == Outcome::kContinue) {
    const auto frame = session.frames.next_frame();
    if (!frame) break;
    outcome = on_frame(out, id, session, *frame, now);
  }
  if (outcome == Outcome::kEvict ||
      (outcome == Outcome::kContinue && session.frames.corrupt()))
    evict(out, id,
          violation_.empty() ? "corrupt result frame stream" : violation_,
          /*suspend=*/false, now);
  return finish(std::move(out));
}

Coordinator::Actions Coordinator::hang_up(SessionId id, TimePoint now) {
  Actions out;
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return out;
  // A worker death or connection drop charges the in-flight point, if any;
  // the worker may come back as a fresh session.
  evict(out, id,
        it->second.frames.mid_frame() ? "truncated result frame"
                                      : "connection lost",
        /*suspend=*/false, now);
  return finish(std::move(out));
}

Coordinator::Actions Coordinator::tick(TimePoint now) {
  Actions out;
  if (said_goodbye_) return out;
  // Silence suspends (a partitioned worker may still deliver); no progress
  // by the point deadline closes. Either way the local child is killed: a
  // SIGSTOP hang or a stuck point never comes back on its own.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const SessionId id = it->first;
    Session& session = (it++)->second;  // evict() may erase this entry
    if (session.state == State::kSuspended) continue;
    const bool silent =
        now - session.last_heard >= seconds(options_.heartbeat_timeout_s);
    const bool stuck = !session.outstanding.empty() && now >= session.deadline;
    if (!silent && !stuck) continue;
    if (session.state == State::kRegistering) {
      close(out, id);  // never said HELLO: nothing to charge
      continue;
    }
    out.push_back({Kind::kKill, 0, {}, session.pid});
    evict(out, id,
          silent ? "heartbeat silence beyond " +
                       common::format_double(options_.heartbeat_timeout_s, 2) +
                       "s"
                 : "deadline " +
                       common::format_double(options_.point_deadline_s, 2) +
                       "s exceeded",
          /*suspend=*/silent, now);
  }
  if (settled()) return finish(std::move(out));

  const bool any_live =
      std::any_of(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.state == State::kLive;
      });
  if (any_live) {
    fleet_deadline_ = now + seconds(options_.registration_timeout_s);
  } else if (now >= fleet_deadline_) {
    throw FleetUnreachableError(
        "no registered worker for " +
        common::format_double(options_.registration_timeout_s, 2) +
        "s with " + std::to_string(total() - done_count_ - quarantine_count_) +
        " points pending");
  }
  // Suspended peers get none: they are not reading.
  if (now >= next_beat_) {
    for (const auto& [id, session] : sessions_)
      if (session.state == State::kLive)
        send(out, id, session.key, encode_heartbeat());
    next_beat_ = now + seconds(options_.heartbeat_interval_s);
  }
  for (auto& [id, session] : sessions_)
    if (session.state == State::kLive && session.outstanding.empty() &&
        !queue_.empty())
      assign(out, id, session, now);
  return out;
}

Coordinator::Actions Coordinator::finish(Actions out) {
  if (said_goodbye_ || !settled()) return out;
  said_goodbye_ = true;
  std::error_code ignored;  // a later fresh run must not inherit charges
  std::filesystem::remove(journal_path_, ignored);
  // Live, suspended and still-registering (base key) workers all stop.
  for (const auto& [id, session] : sessions_)
    send(out, id,
         session.state == State::kRegistering ? base_key_ : session.key,
         encode_shutdown());
  sessions_.clear();
  return out;
}

Coordinator::TimePoint Coordinator::next_wakeup() const {
  TimePoint wake = std::min(next_beat_, fleet_deadline_);
  for (const auto& [id, session] : sessions_) {
    if (session.state == State::kSuspended) continue;
    wake = std::min(wake,
                    session.last_heard + seconds(options_.heartbeat_timeout_s));
    if (!session.outstanding.empty()) wake = std::min(wake, session.deadline);
  }
  // Only an idle live session can take a queued point; a RESULT or HELLO
  // that makes one arrives on a socket and wakes the poll loop by itself.
  const bool any_idle =
      std::any_of(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.state == State::kLive &&
               entry.second.outstanding.empty();
      });
  if (any_idle)
    for (const int index : queue_)
      wake = std::min(wake, ledger_.eligible_at(index));
  return wake;
}

CampaignReport Coordinator::report() const {
  CampaignReport report = runner_.status();
  report.cached = cached_;
  report.computed = computed_;
  report.retried = ledger_.retried();
  return report;
}

}  // namespace sos::campaign
