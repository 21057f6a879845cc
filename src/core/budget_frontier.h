// Worst-case budget-split analysis.
//
// The paper studies fixed (N_T, N_C) pairs; a rational attacker with a
// single resource pool chooses the split. Give the attacker `total` budget
// units, priced per break-in attempt and per congested node, and let it
// pick the fraction spent on break-ins to *minimize* P_S. The defender-side
// counterpart of the paper's conclusion — "there is a clear trade-off in
// the layering as well as the mapping degree" — then becomes quantitative:
// a design is only as strong as its worst split, and the robust design
// maximizes exactly that minimum.
#pragma once

#include <vector>

#include "core/attack_config.h"
#include "core/design.h"

namespace sos::core {

class SuccessiveEvaluator;

struct AttackBudget {
  double total = 4000.0;        // abstract resource units
  double break_in_cost = 2.0;   // units per break-in attempt (intrusions
                                // are costlier than flooding a node)
  double congestion_cost = 1.0; // units per congested node
  /// Successive-attack shape parameters the split does not change.
  int rounds = 3;
  double prior_knowledge = 0.2;  // P_E
  double break_in_success = 0.5; // P_B
};

struct BudgetSplit {
  double fraction = 0.0;       // share of `total` spent on break-ins
  int break_in_budget = 0;     // N_T bought with that share
  int congestion_budget = 0;   // N_C bought with the rest
  double p_success = 1.0;      // analytical P_S for this split
};

class BudgetFrontier {
 public:
  /// P_S as a function of the break-in fraction, on a uniform grid of
  /// `steps` points over [0, 1]. Budgets are clamped to the overlay size.
  /// Evaluated on the caller's thread through one SuccessiveEvaluator.
  static std::vector<BudgetSplit> sweep(const SosDesign& design,
                                        const AttackBudget& budget,
                                        int steps = 21);

  /// sweep() through a caller-held evaluator: fills `curve` (resized to
  /// `steps`) with the grid, evaluating every split against `evaluator`'s
  /// design. sos::optimize calls this from its per-design pool tasks, one
  /// evaluator each.
  static void sweep_into(SuccessiveEvaluator& evaluator,
                         const AttackBudget& budget, int steps,
                         std::vector<BudgetSplit>& curve);

  /// The attacker's optimal (defender's worst) split from the same grid.
  static BudgetSplit worst_case(const SosDesign& design,
                                const AttackBudget& budget, int steps = 21);

  /// Same selection from a precomputed curve (avoids re-running the sweep
  /// when the caller already has it). Ties on p_success break toward the
  /// lowest fraction, so the answer does not depend on grid order quirks.
  static BudgetSplit worst_case(const std::vector<BudgetSplit>& curve);
};

}  // namespace sos::core
