#include "sim/timeline.h"

#include <optional>

#include "attack/successive_attacker.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "overlay/event_queue.h"

namespace sos::sim {

namespace {

/// One instantaneous dashboard sample of the overlay.
TimelinePoint sample(const sosnet::SosOverlay& overlay, double time,
                     int probes, common::Rng& rng) {
  TimelinePoint point;
  point.time = time;
  int delivered = 0;
  for (int probe = 0; probe < probes; ++probe)
    if (overlay.route_message(rng).delivered) ++delivered;
  point.availability = static_cast<double>(delivered) / probes;
  for (int layer = 0; layer < overlay.design().layers(); ++layer) {
    const auto tally = overlay.tally(layer);
    point.good_members += tally.good;
    point.broken_members += tally.broken;
    point.congested_members += tally.congested;
    point.crashed_members += tally.crashed;
  }
  point.congested_filters = overlay.congested_filter_count();
  return point;
}

}  // namespace

TimelineResult run_attack_timeline(sosnet::SosOverlay& overlay,
                                   const core::SuccessiveAttack& attack,
                                   const TimelineConfig& config,
                                   common::Rng& rng) {
  TimelineResult result;

  // Benign churn: the whole fault schedule is drawn up front from the
  // fault seed (never from the attack stream) and armed on an event queue;
  // advancing the queue to each probe instant plays crashes, recoveries
  // and filter flaps in global time order, interleaved with rounds and
  // defense sweeps. A disabled config arms nothing and the queue advance
  // is a no-op, leaving the run bit-identical to the pre-fault engine.
  overlay::EventQueue fault_queue;
  std::optional<faults::FaultPlan> plan;
  std::optional<faults::FaultInjector> injector;
  if (config.faults.enabled()) {
    const double horizon =
        (attack.rounds + 1) * config.round_interval + config.cooldown;
    plan.emplace(faults::FaultPlan::generate(overlay.network().size(),
                                             overlay.filter_count(),
                                             config.faults, horizon));
    injector.emplace(overlay, *plan);
    injector->prime();
    injector->arm(fault_queue);
  }

  // Availability is piecewise constant between rounds, so sampling on the
  // probe grid inside each gap is exact as long as every gap is filled
  // *before* the next state change — hence the before_round hook.
  double next_sample = 0.0;
  const auto sample_until = [&](double horizon, common::Rng& stream) {
    while (next_sample < horizon + 1e-12) {
      fault_queue.run_until(next_sample);
      result.points.push_back(sample(overlay, next_sample,
                                     config.probes_per_sample, stream));
      next_sample += config.probe_interval;
    }
  };

  DefenseTally defended;  // unreported: the samples show the defense's effect
  attack::SuccessiveAttackerOptions options;
  options.before_round = [&](sosnet::SosOverlay&, common::Rng& stream,
                             int round) {
    // State: after round-1 rounds plus defense; valid strictly before
    // round * round_interval.
    sample_until(round * config.round_interval - config.probe_interval / 2,
                 stream);
  };
  options.after_round = [&](sosnet::SosOverlay& net, common::Rng& stream,
                            int round) {
    // Substrate events up to this round fire before the defense reacts.
    fault_queue.run_until(round * config.round_interval);
    defend(net, config.defense, stream, defended);
    result.congestion_time = round * config.round_interval;
  };

  const attack::SuccessiveAttacker attacker{attack, options};
  result.attack = attacker.execute(overlay, rng);

  // The congestion flood fires with the final round (Algorithm 1 phase 2
  // follows break-in immediately); everything sampled from here on is
  // post-flood.
  if (next_sample < result.congestion_time)
    next_sample = result.congestion_time;
  sample_until(result.congestion_time + config.cooldown, rng);
  return result;
}

}  // namespace sos::sim
