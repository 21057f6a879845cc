// Local sensitivity analysis of P_S around an operating point.
//
// The paper's figures are one-dimensional sweeps; operators usually want
// the tornado view instead: at *this* design under *this* expected attack,
// which knob moves P_S the most? This module evaluates finite differences
// of the successive model in every attack parameter and one-notch design
// perturbations (L +/- 1, mapping degree +/- 1, distribution swaps), all at
// negligible cost thanks to the closed-form model.
#pragma once

#include <string>
#include <vector>

#include "core/attack_config.h"
#include "core/design.h"

namespace sos::core {

struct SensitivityEntry {
  std::string parameter;  // "N_T +10%", "L -> 4", "mapping -> one-to-two"...
  double base = 0.0;      // P_S at the operating point
  double perturbed = 0.0; // P_S after the perturbation
  double delta = 0.0;     // perturbed - base
};

struct SensitivityReport {
  double base = 0.0;
  std::vector<SensitivityEntry> attack_knobs;  // attacker-side parameters
  std::vector<SensitivityEntry> design_moves;  // defender-side alternatives

  /// The defender move with the largest P_S gain (delta > 0), if any.
  const SensitivityEntry* best_design_move() const;
  /// The attacker knob whose 10% increase hurts the defender most.
  const SensitivityEntry* worst_attack_knob() const;
};

/// Evaluates the report. `distribution` must be the one `design` was built
/// with (designs do not retain their distribution policy).
SensitivityReport analyze_sensitivity(
    const SosDesign& design, const SuccessiveAttack& attack,
    const NodeDistribution& distribution = NodeDistribution::even());

}  // namespace sos::core
