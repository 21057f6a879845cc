// Availability over time during a staged attack — the dynamic view the
// paper defers to "extensive simulations".
//
// The successive attack unfolds on a discrete-event timeline: break-in
// round j fires at t = j * round_interval, the congestion flood fires one
// interval after the last round, and an optional defense (`sim::defend`:
// repair sweep and/or role rotation) runs after every round. Client probes
// measure the instantaneous delivery rate throughout, producing the
// availability curve an operator would see on a dashboard while the
// campaign is in progress.
#pragma once

#include <vector>

#include "common/rng.h"
#include "core/attack_config.h"
#include "sim/defense.h"
#include "sosnet/sos_overlay.h"

namespace sos::sim {

struct TimelineConfig {
  double round_interval = 1.0;   // time between break-in rounds
  double probe_interval = 0.25;  // client probe cadence
  int probes_per_sample = 200;   // walks averaged per sample point
  double cooldown = 3.0;         // observed time after the congestion flood
  DefenseConfig defense;         // `defend` after every round (optional)
};

struct TimelinePoint {
  double time = 0.0;
  double availability = 0.0;  // instantaneous delivery rate
  int good_members = 0;       // healthy SOS nodes at this instant
  int broken_members = 0;
  int congested_members = 0;
  int congested_filters = 0;
};

struct TimelineResult {
  std::vector<TimelinePoint> points;
  attack::AttackOutcome attack;
  double congestion_time = 0.0;  // when the flood fired
};

/// Runs the campaign on `overlay` and samples availability from t = 0
/// until the flood plus cooldown. Mutates overlay health (as the attack
/// does).
TimelineResult run_attack_timeline(sosnet::SosOverlay& overlay,
                                   const core::SuccessiveAttack& attack,
                                   const TimelineConfig& config,
                                   common::Rng& rng);

}  // namespace sos::sim
