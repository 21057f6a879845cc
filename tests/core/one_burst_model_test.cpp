#include "core/one_burst_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/mathx.h"

namespace sos::core {
namespace {

SosDesign paper_design(int layers, MappingPolicy mapping,
                       int total = 10000, int sos = 100) {
  return SosDesign::make(total, sos, layers, 10, mapping);
}

TEST(OneBurstModel, NoAttackMeansCertainDelivery) {
  const auto result = OneBurstModel::evaluate(
      paper_design(3, MappingPolicy::one_to_one()), OneBurstAttack{0, 0, 0.5});
  EXPECT_EQ(result.p_success(), 1.0);
  EXPECT_EQ(result.broken_total, 0.0);
  EXPECT_EQ(result.disclosed_total, 0.0);
}

TEST(OneBurstModel, PureCongestionOneToOneClosedForm) {
  // With N_T = 0 and m = 1: every layer loses the fraction N_C/N, the
  // filters stay clean, so P_S = (1 - N_C/N)^L exactly.
  for (int layers : {1, 2, 3, 5, 8}) {
    for (int budget : {1000, 2000, 6000}) {
      const double p = OneBurstModel::p_success(
          paper_design(layers, MappingPolicy::one_to_one()),
          OneBurstAttack{0, budget, 0.5});
      EXPECT_NEAR(p, std::pow(1.0 - budget / 10000.0, layers), 1e-9)
          << "L=" << layers << " NC=" << budget;
    }
  }
}

TEST(OneBurstModel, PureCongestionSpreadsProportionally) {
  const auto result = OneBurstModel::evaluate(
      paper_design(4, MappingPolicy::one_to_two()),
      OneBurstAttack{0, 2000, 0.5});
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.layers[i].congested, 0.2 * 25.0, 1e-9);
    EXPECT_EQ(result.layers[i].broken, 0.0);
  }
  // Filters are never randomly congested (footnote 2).
  EXPECT_EQ(result.layers[4].congested, 0.0);
}

TEST(OneBurstModel, PureBreakInOneToOneClosedForm) {
  // With N_C = 0 and m = 1: s_i = b_i = P_B (n_i/N) N_T, filters unharmed,
  // so P_S = (1 - P_B N_T / N)^L.
  for (int layers : {1, 3, 6}) {
    const double p = OneBurstModel::p_success(
        paper_design(layers, MappingPolicy::one_to_one()),
        OneBurstAttack{2000, 0, 0.5});
    EXPECT_NEAR(p, std::pow(0.9, layers), 1e-9);
  }
}

TEST(OneBurstModel, BreakInBudgetAccounting) {
  const auto result = OneBurstModel::evaluate(
      paper_design(4, MappingPolicy::one_to_five()),
      OneBurstAttack{2000, 0, 0.5});
  double attempted = 0.0;
  for (int i = 0; i < 4; ++i) attempted += result.layers[i].attempted;
  // SOS layers see exactly n/N of the break-in budget on average.
  EXPECT_NEAR(attempted, 100.0 / 10000.0 * 2000.0, 1e-9);
  EXPECT_NEAR(result.broken_total, 0.5 * attempted, 1e-9);
  // Filters can never be broken into.
  EXPECT_EQ(result.layers[4].attempted, 0.0);
  EXPECT_EQ(result.layers[4].broken, 0.0);
}

TEST(OneBurstModel, CongestionBudgetNeverExceeded) {
  for (int budget_c : {10, 100, 2000, 6000}) {
    for (int budget_t : {0, 200, 2000}) {
      const auto result = OneBurstModel::evaluate(
          paper_design(3, MappingPolicy::one_to_five()),
          OneBurstAttack{budget_t, budget_c, 0.5});
      double congested = 0.0;
      for (const auto& layer : result.layers) congested += layer.congested;
      EXPECT_LE(congested, budget_c + 1e-6)
          << "NT=" << budget_t << " NC=" << budget_c;
    }
  }
}

TEST(OneBurstModel, OneToAllCollapsesUnderHeavyBreakIn) {
  // Paper, Section 3.1.2: "when the mapping is one to all, P_S = 0" for
  // N_T = 2000, N_C = 2000.
  const double p = OneBurstModel::p_success(
      paper_design(3, MappingPolicy::one_to_all()),
      OneBurstAttack{2000, 2000, 0.5});
  EXPECT_NEAR(p, 0.0, 1e-6);
}

TEST(OneBurstModel, HigherMappingHelpsWithoutBreakIns) {
  // Fig. 4(a): more neighbors = more alternate paths under pure congestion.
  const OneBurstAttack attack{0, 6000, 0.5};
  const double p_one =
      OneBurstModel::p_success(paper_design(3, MappingPolicy::one_to_one()),
                               attack);
  const double p_half =
      OneBurstModel::p_success(paper_design(3, MappingPolicy::one_to_half()),
                               attack);
  const double p_all =
      OneBurstModel::p_success(paper_design(3, MappingPolicy::one_to_all()),
                               attack);
  EXPECT_LT(p_one, p_half);
  EXPECT_LE(p_half, p_all);
}

TEST(OneBurstModel, HigherMappingHurtsUnderHeavyBreakIn) {
  // Fig. 4(b): more neighbors = more disclosure once nodes are broken into.
  const OneBurstAttack attack{2000, 2000, 0.5};
  const double p_one =
      OneBurstModel::p_success(paper_design(3, MappingPolicy::one_to_one()),
                               attack);
  const double p_all =
      OneBurstModel::p_success(paper_design(3, MappingPolicy::one_to_all()),
                               attack);
  EXPECT_GT(p_one, p_all);
}

TEST(OneBurstModel, MoreLayersHelpAgainstBreakInWithModerateMapping) {
  // Hand-checked trade-off (see DESIGN.md claims): with one-to-five mapping
  // and a strong break-in phase, deep layering contains disclosure.
  const OneBurstAttack attack{2000, 2000, 0.5};
  const double p_l3 = OneBurstModel::p_success(
      paper_design(3, MappingPolicy::one_to_five()), attack);
  const double p_l5 = OneBurstModel::p_success(
      paper_design(5, MappingPolicy::one_to_five()), attack);
  EXPECT_GT(p_l5, p_l3);
}

TEST(OneBurstModel, MonotoneInCongestionBudget) {
  const auto design = paper_design(3, MappingPolicy::one_to_two());
  double prev = 2.0;
  for (int budget : {0, 500, 1000, 2000, 4000, 6000, 8000}) {
    const double p =
        OneBurstModel::p_success(design, OneBurstAttack{200, budget, 0.5});
    EXPECT_LE(p, prev + 1e-9);
    prev = p;
  }
}

TEST(OneBurstModel, MonotoneInBreakInBudget) {
  const auto design = paper_design(3, MappingPolicy::one_to_five());
  double prev = 2.0;
  for (int budget : {0, 100, 200, 500, 1000, 2000, 4000}) {
    const double p =
        OneBurstModel::p_success(design, OneBurstAttack{budget, 2000, 0.5});
    EXPECT_LE(p, prev + 1e-9);
    prev = p;
  }
}

TEST(OneBurstModel, MonotoneInBreakInSuccessProbability) {
  const auto design = paper_design(3, MappingPolicy::one_to_five());
  double prev = 2.0;
  for (double pb : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double p =
        OneBurstModel::p_success(design, OneBurstAttack{2000, 2000, pb});
    EXPECT_LE(p, prev + 1e-9);
    prev = p;
  }
}

TEST(OneBurstModel, ScarceCongestionIsProportionalToDisclosure) {
  // N_C < N_D: Eq. (9) splits the budget pro rata across disclosed sets.
  const auto design = paper_design(3, MappingPolicy::one_to_all());
  const auto rich = OneBurstModel::evaluate(design,
                                            OneBurstAttack{2000, 10000, 0.5});
  ASSERT_GT(rich.disclosed_total, 10.0);
  const int scarce_budget = static_cast<int>(rich.disclosed_total / 2.0);
  const auto scarce = OneBurstModel::evaluate(
      design, OneBurstAttack{2000, scarce_budget, 0.5});
  double congested = 0.0;
  for (const auto& layer : scarce.layers) congested += layer.congested;
  EXPECT_NEAR(congested, scarce_budget, 1e-6);
}

TEST(OneBurstModel, LargerOverlayDilutesAttack) {
  // Fig. 8(a): increasing N at fixed n decreases the chance random break-ins
  // land on SOS nodes.
  const OneBurstAttack attack{2000, 2000, 0.5};
  const double p_small = OneBurstModel::p_success(
      paper_design(3, MappingPolicy::one_to_five(), 10000), attack);
  const double p_large = OneBurstModel::p_success(
      paper_design(3, MappingPolicy::one_to_five(), 20000), attack);
  EXPECT_GT(p_large, p_small);
}

TEST(OneBurstModel, RejectsInvalidAttacks) {
  const auto design = paper_design(3, MappingPolicy::one_to_one());
  EXPECT_THROW(OneBurstModel::evaluate(design, OneBurstAttack{-1, 0, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(OneBurstModel::evaluate(design, OneBurstAttack{0, -1, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(OneBurstModel::evaluate(design, OneBurstAttack{0, 20000, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(OneBurstModel::evaluate(design, OneBurstAttack{0, 0, 1.5}),
               std::invalid_argument);
}

TEST(OneBurstModel, ExtremeBudgetsStayInBounds) {
  for (int layers : {1, 2, 4, 8}) {
    for (const auto& mapping :
         {MappingPolicy::one_to_one(), MappingPolicy::one_to_half(),
          MappingPolicy::one_to_all()}) {
      const double p = OneBurstModel::p_success(
          paper_design(layers, mapping), OneBurstAttack{10000, 10000, 1.0});
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      EXPECT_NEAR(p, 0.0, 1e-6);  // total annihilation
    }
  }
}

// Property sweep: P_S is always a probability and per-layer sets never
// exceed the layer size.
struct SweepParam {
  int layers;
  int budget_t;
  int budget_c;
  double p_break;
};

// Printed as fields, not bytes: the struct has padding, and gtest's
// printout becomes the ctest name.
void PrintTo(const SweepParam& param, std::ostream* out) {
  *out << "L" << param.layers << "_T" << param.budget_t << "_C"
       << param.budget_c << "_PB" << param.p_break;
}

class OneBurstSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OneBurstSweep, InvariantsHold) {
  const auto [layers, budget_t, budget_c, p_break] = GetParam();
  for (const auto& mapping :
       {MappingPolicy::one_to_one(), MappingPolicy::one_to_two(),
        MappingPolicy::one_to_five(), MappingPolicy::one_to_half(),
        MappingPolicy::one_to_all()}) {
    const auto design = paper_design(layers, mapping);
    const auto result = OneBurstModel::evaluate(
        design, OneBurstAttack{budget_t, budget_c, p_break});
    EXPECT_GE(result.p_success(), 0.0);
    EXPECT_LE(result.p_success(), 1.0);
    for (int i = 1; i <= layers + 1; ++i) {
      const auto& layer = result.layers[static_cast<std::size_t>(i - 1)];
      const auto size = static_cast<double>(design.layer_size(i));
      EXPECT_GE(layer.broken, 0.0);
      EXPECT_GE(layer.congested, 0.0);
      EXPECT_LE(layer.bad(), size + 1e-9);
      EXPECT_GE(layer.disclosed_unattacked, 0.0);
      EXPECT_GE(layer.disclosed_attempted, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterLattice, OneBurstSweep,
    ::testing::Values(SweepParam{1, 0, 0, 0.5}, SweepParam{1, 2000, 2000, 0.5},
                      SweepParam{2, 200, 2000, 0.5},
                      SweepParam{3, 2000, 6000, 0.5},
                      SweepParam{4, 500, 100, 0.9},
                      SweepParam{5, 2000, 2000, 0.1},
                      SweepParam{8, 4000, 4000, 0.5},
                      SweepParam{8, 10000, 10000, 1.0},
                      SweepParam{3, 0, 10000, 0.5},
                      SweepParam{3, 10000, 0, 1.0}));

}  // namespace
}  // namespace sos::core
