// The successive intelligent attacker of Section 3.2 (Algorithm 1) executed
// against a concrete overlay.
//
// Round structure: the attacker enters round j knowing the X_j disclosed-
// but-unattacked nodes. With per-round quota alpha = N_T/R and remaining
// budget beta it (case 1/2) attacks all X_j plus random top-up targets,
// (case 3) attacks exactly the X_j disclosed nodes, or (case 4) attacks a
// beta-subset of them and leaves the rest for the congestion phase. Prior
// knowledge P_E seeds round 1 with a fraction of the first layer.
//
// The optional `monitor_predecessors` extension implements the paper's
// Section 5 "more intelligence" attacker: a broken-in node's on-going
// traffic also reveals which *previous-layer* nodes forward to it, each
// detected with probability `monitor_detection`.
#pragma once

#include <functional>

#include "attack/attack_outcome.h"
#include "common/rng.h"
#include "core/attack_config.h"
#include "sosnet/sos_overlay.h"

namespace sos::attack {

struct SuccessiveAttackerOptions {
  bool monitor_predecessors = false;  // Section 5 adaptive extension
  double monitor_detection = 0.5;     // per-predecessor disclosure chance

  /// Invoked just before round `round`'s break-ins are launched (overlay
  /// state still reflects the previous round + any defense). Used by the
  /// timeline sampler.
  std::function<void(sosnet::SosOverlay&, common::Rng&, int round)>
      before_round;

  /// Invoked after each completed break-in round (before the congestion
  /// phase); the defense extensions run `sim::defend` here to let the
  /// defender act between rounds.
  std::function<void(sosnet::SosOverlay&, common::Rng&, int round)>
      after_round;
};

class SuccessiveAttacker {
 public:
  explicit SuccessiveAttacker(core::SuccessiveAttack config,
                              SuccessiveAttackerOptions options = {})
      : config_(config), options_(options) {}

  AttackOutcome execute(sosnet::SosOverlay& overlay, common::Rng& rng) const;

 private:
  core::SuccessiveAttack config_;
  SuccessiveAttackerOptions options_;
};

}  // namespace sos::attack
