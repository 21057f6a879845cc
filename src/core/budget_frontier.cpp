#include "core/budget_frontier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/successive_model.h"

namespace sos::core {

std::vector<BudgetSplit> BudgetFrontier::sweep(const SosDesign& design,
                                               const AttackBudget& budget,
                                               int steps) {
  SuccessiveEvaluator evaluator{design};
  std::vector<BudgetSplit> curve;
  sweep_into(evaluator, budget, steps, curve);
  return curve;
}

void BudgetFrontier::sweep_into(SuccessiveEvaluator& evaluator,
                                const AttackBudget& budget, int steps,
                                std::vector<BudgetSplit>& curve) {
  if (steps < 2)
    throw std::invalid_argument("BudgetFrontier: need at least 2 grid points");
  if (budget.total < 0.0 || budget.break_in_cost <= 0.0 ||
      budget.congestion_cost <= 0.0)
    throw std::invalid_argument("BudgetFrontier: bad budget");
  const int total_overlay_nodes = evaluator.design().total_overlay_nodes;
  SuccessiveAttack attack;
  attack.break_in_success = budget.break_in_success;
  attack.prior_knowledge = budget.prior_knowledge;
  attack.rounds = budget.rounds;
  curve.assign(static_cast<std::size_t>(steps), BudgetSplit{});
  for (int step = 0; step < steps; ++step) {
    BudgetSplit& split = curve[static_cast<std::size_t>(step)];
    split.fraction = static_cast<double>(step) / (steps - 1);
    const double break_in_units = split.fraction * budget.total;
    const double congestion_units = budget.total - break_in_units;
    split.break_in_budget = std::min(
        total_overlay_nodes,
        static_cast<int>(std::floor(break_in_units / budget.break_in_cost)));
    split.congestion_budget =
        std::min(total_overlay_nodes,
                 static_cast<int>(
                     std::floor(congestion_units / budget.congestion_cost)));
    attack.break_in_budget = split.break_in_budget;
    attack.congestion_budget = split.congestion_budget;
    split.p_success = evaluator.p_success(attack);
  }
}

BudgetSplit BudgetFrontier::worst_case(const SosDesign& design,
                                       const AttackBudget& budget,
                                       int steps) {
  return worst_case(sweep(design, budget, steps));
}

BudgetSplit BudgetFrontier::worst_case(const std::vector<BudgetSplit>& curve) {
  if (curve.empty())
    throw std::invalid_argument("BudgetFrontier: empty curve");
  // Strict < keeps the first (lowest-fraction) split on equal p_success, and
  // the grid is generated in ascending fraction order.
  return *std::min_element(curve.begin(), curve.end(),
                           [](const BudgetSplit& a, const BudgetSplit& b) {
                             return a.p_success < b.p_success;
                           });
}

}  // namespace sos::core
