// The one-burst intelligent attacker of Section 3.1, executed against a
// concrete overlay: N_T uniformly random break-in attempts in one round
// (capturing neighbor tables with probability P_B each), then the standard
// disclosure-guided congestion phase.
#pragma once

#include "attack/attack_outcome.h"
#include "common/rng.h"
#include "core/attack_config.h"
#include "sosnet/sos_overlay.h"

namespace sos::attack {

class OneBurstAttacker {
 public:
  explicit OneBurstAttacker(core::OneBurstAttack config)
      : config_(config) {}

  /// Mutates overlay health; call overlay.reset_health() to reuse the
  /// topology.
  AttackOutcome execute(sosnet::SosOverlay& overlay, common::Rng& rng) const;

  /// Break-in phase conditioned on the secret-servlet (last-layer) outcome:
  /// exactly `servlet_victims` of the m servlets receive break-in attempts
  /// and exactly `servlet_successes` of those succeed. Conditioned on those
  /// two counts, the attempted servlets are a uniform subset of the m and
  /// the compromised ones a uniform subset of the attempted — the exact
  /// conditional law of execute(), because every servlet shares the same
  /// effective break-in probability (P_B x the last layer's hardening
  /// factor). The remaining N_T - servlet_victims attempts fall uniformly on
  /// non-servlet nodes and draw their Bernoulli outcomes (and per-layer
  /// hardening) exactly as execute() does, and the congestion phase runs
  /// unchanged. Used by the sim::sampling stratified estimator, whose
  /// per-stratum attack draws the two counts from the analytic
  /// hypergeometric-binomial law.
  AttackOutcome execute_conditioned(sosnet::SosOverlay& overlay,
                                    common::Rng& rng, int servlet_victims,
                                    int servlet_successes) const;

 private:
  core::OneBurstAttack config_;
};

}  // namespace sos::attack
