#include "sim/timeline.h"

#include "attack/successive_attacker.h"

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

  // Availability is piecewise constant between rounds, so sampling on the
  // probe grid inside each gap is exact as long as every gap is filled
  // *before* the next state change — hence the before_round hook.
  double next_sample = 0.0;
  const auto sample_until = [&](double horizon, common::Rng& stream) {
    while (next_sample < horizon + 1e-12) {
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
