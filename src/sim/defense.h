// Dynamic defenses during a successive attack (paper Section 5 future work).
//
// The paper's models assume no recovery during an attack and argue that
// large R is risky for the attacker precisely because it gives the system
// time to repair. `defend` is the one defender step that quantifies this; it
// runs after every break-in round (and, in the example, after the attack):
//
//  - repair: every compromised node, then every congested filter, is
//    independently detected and scrubbed with probability `repair_rate`. A
//    repaired node routes again under its old identity, so everything the
//    attacker already learned stays learned.
//  - migration: every SOS member (a snapshot of each layer) is retired with
//    probability `migration_rate` if compromised (reactive) or
//    `proactive_rate` if healthy (proactive), and a uniformly chosen usable
//    bystander takes its role (SosOverlay::migrate_member). The recruit gets
//    a fresh neighbor table, so layer capacity returns without re-trusting a
//    once-captured machine, and a pending identity the attacker disclosed is
//    a mere bystander by the time it is attacked — the anti-intelligence
//    lever that repair lacks.
#pragma once

#include "attack/attack_outcome.h"
#include "common/rng.h"
#include "core/attack_config.h"
#include "sosnet/sos_overlay.h"

namespace sos::sim {

struct DefenseConfig {
  double repair_rate = 0.0;     // per compromised node/filter per step
  double migration_rate = 0.0;  // per compromised member per step
  double proactive_rate = 0.0;  // per healthy member per step
};

/// What the defender did, summed over every step it took.
struct DefenseTally {
  int repaired_nodes = 0;
  int repaired_filters = 0;
  int migrated = 0;  // roles handed to fresh nodes
};

/// One defender step on `overlay`: the repair sweep, then the migration
/// pass. A zero rate draws nothing from `rng`.
void defend(sosnet::SosOverlay& overlay, const DefenseConfig& config,
            common::Rng& rng, DefenseTally& tally);

struct DefenseOutcome {
  attack::AttackOutcome attack;  // footprint after the congestion phase
  DefenseTally tally;
};

/// Successive attack on `overlay` with `defend` after every break-in round.
/// The congestion flood fires after the final round, followed by one last
/// repair sweep (the defense keeps working while the flood starts). The
/// attacker targets whatever identities it collected, retired ones included.
DefenseOutcome run_successive_attack_with_defense(
    sosnet::SosOverlay& overlay, const core::SuccessiveAttack& attack,
    const DefenseConfig& config, common::Rng& rng);

}  // namespace sos::sim
