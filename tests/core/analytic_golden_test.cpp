// Golden-value regression tests for the closed-form analytic engine.
//
// The curves below were produced by the original per-point implementations
// (one full layer-DP / inclusion-exclusion pass per budget) at the repo's
// seed revision. The batched implementations may reorder floating-point
// work, so the exact model is pinned with a tight relative tolerance while
// the original-SOS model and the budget frontier — whose arithmetic is
// unchanged — are pinned bit-for-bit. A second group of tests checks the
// structural invariants the batch APIs promise: batch and reused-evaluator
// results equal the per-point models bit for bit.
#include "core/exact_models.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/budget_frontier.h"
#include "core/sensitivity.h"
#include "core/successive_model.h"

namespace sos::core {
namespace {

// Seed values carry ~1e-11 relative noise through the exp/lgamma chain;
// 1e-9 relative (plus a 1e-10 floor) pins them with two orders of margin.
void expect_close(double actual, double expected) {
  EXPECT_NEAR(actual, expected, 1e-10 + 1e-9 * std::fabs(expected));
}

using Curve = std::vector<std::pair<int, double>>;

TEST(AnalyticGolden, ExactModelOneToFiveL3) {
  const auto design =
      SosDesign::make(10000, 100, 3, 10, MappingPolicy::one_to_five());
  const Curve golden{
      {0, 1.0},
      {500, 0.99999908021285244},
      {1000, 0.99997026951486023},
      {2000, 0.99904413746751708},
      {4000, 0.96963746694229747},
      {6000, 0.78449409833830219},
      {8000, 0.30387388329709841},
      {10000, 0.0},
  };
  for (const auto& [budget, expected] : golden)
    expect_close(ExactRandomCongestionModel::p_success(design, budget),
                 expected);
}

TEST(AnalyticGolden, ExactModelOneToOneL8) {
  const auto design =
      SosDesign::make(10000, 100, 8, 10, MappingPolicy::one_to_one());
  const Curve golden{
      {0, 1.0},
      {500, 0.66332262108835094},
      {1000, 0.43033323699474629},
      {2000, 0.16765469452911302},
      {4000, 0.016764815533732234},
      {6000, 0.00065261085935027256},
      {8000, 2.531445354613888e-06},
      {10000, 0.0},
  };
  for (const auto& [budget, expected] : golden)
    expect_close(ExactRandomCongestionModel::p_success(design, budget),
                 expected);
}

TEST(AnalyticGolden, OriginalSosModelL3) {
  const auto design =
      SosDesign::make(10000, 100, 3, 10, MappingPolicy::one_to_all());
  const Curve golden{
      {0, 1.0},
      {500, 1.0},
      {1000, 1.0},
      {2000, 1.0},
      {4000, 0.99999999999983658},
      {6000, 0.99999988021240516},
      {8000, 0.99825002062741564},
      {10000, 0.0},
  };
  for (const auto& [budget, expected] : golden)
    EXPECT_DOUBLE_EQ(OriginalSosModel::p_success(design, budget), expected)
        << "budget " << budget;
}

TEST(AnalyticGolden, OriginalSosModelSmallOverlayL5) {
  const auto design =
      SosDesign::make(500, 60, 5, 10, MappingPolicy::one_to_all());
  const Curve golden{
      {0, 1.0},
      {60, 0.99999999998431921},
      {200, 0.99993156028020669},
      {400, 0.70641154867610267},
      {499, 4.2570391656227002e-12},
  };
  for (const auto& [budget, expected] : golden)
    EXPECT_DOUBLE_EQ(OriginalSosModel::p_success(design, budget), expected)
        << "budget " << budget;
}

AttackBudget frontier_budget() {
  AttackBudget budget;
  budget.total = 4000.0;
  budget.break_in_cost = 2.0;
  budget.congestion_cost = 1.0;
  budget.break_in_success = 0.5;
  return budget;
}

TEST(AnalyticGolden, BudgetFrontierSweep) {
  const auto design =
      SosDesign::make(10000, 100, 4, 10, MappingPolicy::one_to_two());
  const std::vector<double> golden{
      0.45498728458737508, 0.33493091848397299, 0.35125194589684466,
      0.36458817375998415, 0.37588805809066966, 0.38536354433727232,
      0.39317323439332563, 0.39946896134000842, 0.40439458079229296,
      0.4080852366235071,  0.41066699186595712, 0.41225673614428127,
      0.41296229836117537, 0.41288270784450187, 0.41210855913412081,
      0.41072244538683544, 0.4087994333375819,  0.4064075591716092,
      0.40360832979764777, 0.40045721809205365, 0.88729838953744067,
  };
  const auto curve = BudgetFrontier::sweep(design, frontier_budget(), 21);
  ASSERT_EQ(curve.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].fraction,
                     static_cast<double>(i) / (golden.size() - 1));
    EXPECT_DOUBLE_EQ(curve[i].p_success, golden[i]) << "step " << i;
  }
}

std::vector<int> full_grid(int big_n, int step = 500) {
  std::vector<int> budgets;
  for (int budget = 0; budget <= big_n; budget += step)
    budgets.push_back(budget);
  return budgets;
}

TEST(AnalyticGolden, ExactCurveBatchMatchesPerPointBitwise) {
  for (const int layers : {1, 3, 8}) {
    const auto design =
        SosDesign::make(10000, 100, layers, 10, MappingPolicy::one_to_five());
    const auto budgets = full_grid(design.total_overlay_nodes);
    const auto curve =
        ExactRandomCongestionModel::p_success_curve(design, budgets);
    ASSERT_EQ(curve.size(), budgets.size());
    for (std::size_t i = 0; i < budgets.size(); ++i)
      EXPECT_EQ(curve[i],
                ExactRandomCongestionModel::p_success(design, budgets[i]))
          << "L=" << layers << " budget " << budgets[i];
  }
}

TEST(AnalyticGolden, OriginalCurveBatchMatchesPerPointBitwise) {
  for (const int layers : {3, 5}) {
    const auto design =
        SosDesign::make(10000, 100, layers, 10, MappingPolicy::one_to_all());
    const auto budgets = full_grid(design.total_overlay_nodes);
    OriginalSosModel::Workspace workspace;
    std::vector<double> curve;
    OriginalSosModel::p_success_curve(design, budgets, curve, workspace);
    ASSERT_EQ(curve.size(), budgets.size());
    for (std::size_t i = 0; i < budgets.size(); ++i)
      EXPECT_EQ(curve[i], OriginalSosModel::p_success(design, budgets[i]))
          << "L=" << layers << " budget " << budgets[i];
  }
}

TEST(AnalyticGolden, SuccessiveEvaluatorMatchesPerPointBitwise) {
  const auto design =
      SosDesign::make(10000, 100, 4, 10, MappingPolicy::one_to_two());
  SuccessiveEvaluator evaluator{design};
  SuccessiveAttack attack;
  attack.congestion_budget = 2000;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  for (int budget_t = 0; budget_t <= 4000; budget_t += 400) {
    attack.break_in_budget = budget_t;
    EXPECT_EQ(evaluator.p_success(attack),
              SuccessiveModel::p_success(design, attack))
        << "N_T " << budget_t;
  }
}

TEST(AnalyticGolden, SensitivityProbesMatchPerPointModelBitwise) {
  const auto make = [](int layers, const MappingPolicy& mapping,
                       const NodeDistribution& dist) {
    return SosDesign::make(10000, 100, layers, 10, mapping, dist);
  };
  const auto even = NodeDistribution::even();
  const auto design = make(4, MappingPolicy::one_to_two(), even);
  SuccessiveAttack attack;
  attack.break_in_budget = 200;
  attack.congestion_budget = 2000;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  const auto report = analyze_sensitivity(design, attack);
  EXPECT_EQ(report.base, SuccessiveModel::p_success(design, attack));

  std::vector<std::pair<std::string, SuccessiveAttack>> knobs(5, {"", attack});
  knobs[0].first = "N_T +10%";
  knobs[0].second.break_in_budget = 220;
  knobs[1].first = "N_C +10%";
  knobs[1].second.congestion_budget = 2200;
  knobs[2].first = "P_B +10%";
  knobs[2].second.break_in_success = attack.break_in_success * 1.1 + 1e-3;
  knobs[3].first = "P_E +10%";
  knobs[3].second.prior_knowledge = attack.prior_knowledge * 1.1 + 1e-3;
  knobs[4].first = "R +1";
  knobs[4].second.rounds = 4;
  ASSERT_EQ(report.attack_knobs.size(), knobs.size());
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    EXPECT_EQ(report.attack_knobs[i].parameter, knobs[i].first);
    EXPECT_EQ(report.attack_knobs[i].perturbed,
              SuccessiveModel::p_success(design, knobs[i].second))
        << knobs[i].first;
  }

  const std::vector<std::pair<std::string, SosDesign>> moves{
      {"L -> 3", make(3, MappingPolicy::one_to_two(), even)},
      {"L -> 5", make(5, MappingPolicy::one_to_two(), even)},
      {"mapping -> fixed 1", make(4, MappingPolicy::fixed(1), even)},
      {"mapping -> fixed 3", make(4, MappingPolicy::fixed(3), even)},
      {"distribution -> increasing",
       make(4, MappingPolicy::one_to_two(), NodeDistribution::increasing())},
      {"distribution -> decreasing",
       make(4, MappingPolicy::one_to_two(), NodeDistribution::decreasing())},
  };
  ASSERT_EQ(report.design_moves.size(), moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    EXPECT_EQ(report.design_moves[i].parameter, moves[i].first);
    EXPECT_EQ(report.design_moves[i].perturbed,
              SuccessiveModel::p_success(moves[i].second, attack))
        << moves[i].first;
  }
}

TEST(AnalyticGolden, WorstCaseFromCurveBreaksTiesTowardLowestFraction) {
  std::vector<BudgetSplit> curve(4);
  curve[0] = {0.0, 0, 4000, 0.9};
  curve[1] = {0.25, 500, 3000, 0.4};
  curve[2] = {0.5, 1000, 2000, 0.4};  // ties with the previous split
  curve[3] = {0.75, 1500, 1000, 0.7};
  const auto worst = BudgetFrontier::worst_case(curve);
  EXPECT_DOUBLE_EQ(worst.fraction, 0.25);
  EXPECT_DOUBLE_EQ(worst.p_success, 0.4);
  EXPECT_THROW(BudgetFrontier::worst_case(std::vector<BudgetSplit>{}),
               std::invalid_argument);
}

TEST(AnalyticGolden, WorstCaseOverloadsAgree) {
  const auto design =
      SosDesign::make(10000, 100, 4, 10, MappingPolicy::one_to_two());
  const auto budget = frontier_budget();
  const auto from_design = BudgetFrontier::worst_case(design, budget, 21);
  const auto from_curve =
      BudgetFrontier::worst_case(BudgetFrontier::sweep(design, budget, 21));
  EXPECT_EQ(from_design.fraction, from_curve.fraction);
  EXPECT_EQ(from_design.p_success, from_curve.p_success);
}

}  // namespace
}  // namespace sos::core
