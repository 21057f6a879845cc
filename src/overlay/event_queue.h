// Discrete-event scheduler used by the dynamic extensions (benign faults
// interleaved with the attack timeline's rounds, defense and probes).
//
// Events fire in (time, insertion-order) order so simultaneous events are
// deterministic. The queue owns the callbacks; run_until drains everything
// up to and including the horizon.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace sos::overlay {

/// What schedule() does with a `when` that is already in the past.
enum class OverduePolicy {
  /// Reject: throw std::invalid_argument (the default — scheduling into
  /// the past is almost always a logic error worth failing loudly on).
  kReject,
  /// Clamp: run the event at now(), after everything already queued for
  /// now(). Useful when event times come from an external schedule (e.g. a
  /// fault plan armed onto a queue that has already advanced).
  kClamp,
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` at absolute time `when`. `when` must be >= now();
  /// an overdue `when` is handled per the queue's OverduePolicy.
  void schedule(double when, Callback callback);

  /// Schedules relative to the current time.
  void schedule_in(double delay, Callback callback) {
    schedule(now_ + delay, std::move(callback));
  }

  double now() const noexcept { return now_; }
  bool empty() const noexcept { return events_.empty(); }
  std::size_t pending() const noexcept { return events_.size(); }

  OverduePolicy overdue_policy() const noexcept { return overdue_policy_; }
  void set_overdue_policy(OverduePolicy policy) noexcept {
    overdue_policy_ = policy;
  }

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs every event with time <= horizon; now() ends at max(now, horizon).
  void run_until(double horizon);

  /// Drains the queue completely.
  void run_all();

 private:
  struct Event {
    double when;
    std::uint64_t sequence;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::uint64_t next_sequence_ = 0;
  double now_ = 0.0;
  OverduePolicy overdue_policy_ = OverduePolicy::kReject;
};

}  // namespace sos::overlay
