#include "common/mathx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace sos::common {
namespace {

TEST(LogBinomial, MatchesSmallExactValues) {
  EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(52, 5)), 2598960.0, 1e-3);
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_EQ(binomial(5, -1), 0.0);
  EXPECT_EQ(binomial(5, 6), 0.0);
}

TEST(ProbAllInSubset, MatchesHandComputedValues) {
  // P(x=5, y=3, z=2) = C(3,2)/C(5,2) = 3/10.
  EXPECT_NEAR(prob_all_in_subset(5, 3, 2), 0.3, 1e-12);
  // P(x=10, y=10, z=4) = 1 (everything is in the subset).
  EXPECT_NEAR(prob_all_in_subset(10, 10, 4), 1.0, 1e-12);
  // z > y -> impossible.
  EXPECT_EQ(prob_all_in_subset(10, 3, 4), 0.0);
}

TEST(ProbAllInSubset, ZeroSelectionAlwaysSucceeds) {
  EXPECT_EQ(prob_all_in_subset(10, 3, 0), 1.0);
  EXPECT_EQ(prob_all_in_subset(10, 0, 0), 1.0);
}

TEST(ProbAllInSubset, AgreesWithBinomialRatioAtIntegers) {
  for (int x = 2; x <= 30; x += 7) {
    for (int y = 0; y <= x; y += 3) {
      for (int z = 1; z <= x; z += 4) {
        const double expected =
            (y >= z) ? binomial(y, z) / binomial(x, z) : 0.0;
        EXPECT_NEAR(prob_all_in_subset(x, y, z), expected, 1e-9)
            << "x=" << x << " y=" << y << " z=" << z;
      }
    }
  }
}

TEST(ProbAllInSubset, MonotoneIncreasingInSubsetSize) {
  double prev = -1.0;
  for (double y = 0.0; y <= 50.0; y += 0.5) {
    const double p = prob_all_in_subset(50, y, 3);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ProbAllInSubset, MonotoneDecreasingInDrawCount) {
  double prev = 2.0;
  for (int z = 0; z <= 20; ++z) {
    const double p = prob_all_in_subset(40, 20.5, z);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(ProbAllInSubset, FractionalSubsetInterpolates) {
  const double lo = prob_all_in_subset(20, 10, 2);
  const double mid = prob_all_in_subset(20, 10.5, 2);
  const double hi = prob_all_in_subset(20, 11, 2);
  EXPECT_GT(mid, lo);
  EXPECT_LT(mid, hi);
}

TEST(HypergeometricPmf, SumsToOne) {
  const int population = 50, marked = 18, draws = 12;
  double total = 0.0;
  for (int k = 0; k <= draws; ++k)
    total += hypergeometric_pmf(population, marked, draws, k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HypergeometricPmf, MeanMatchesTheory) {
  const int population = 60, marked = 24, draws = 15;
  double mean = 0.0;
  for (int k = 0; k <= draws; ++k)
    mean += k * hypergeometric_pmf(population, marked, draws, k);
  EXPECT_NEAR(mean, static_cast<double>(draws) * marked / population, 1e-9);
}

TEST(HypergeometricPmf, ImpossibleOutcomesAreZero) {
  EXPECT_EQ(hypergeometric_pmf(10, 4, 5, 6), 0.0);   // k > draws? k > marked
  EXPECT_EQ(hypergeometric_pmf(10, 4, 5, -1), 0.0);  // negative
  // draws - k > population - marked: cannot draw that many unmarked.
  EXPECT_EQ(hypergeometric_pmf(10, 8, 5, 0), 0.0);
}

TEST(PowOneMinus, MatchesStdPowAtModerateValues) {
  EXPECT_NEAR(pow_one_minus(0.25, 3.0), std::pow(0.75, 3.0), 1e-12);
  EXPECT_NEAR(pow_one_minus(0.5, 2.5), std::pow(0.5, 2.5), 1e-12);
}

TEST(PowOneMinus, EdgeCases) {
  EXPECT_EQ(pow_one_minus(0.5, 0.0), 1.0);
  EXPECT_EQ(pow_one_minus(1.0, 3.0), 0.0);
  EXPECT_EQ(pow_one_minus(0.0, 3.0), 1.0);
  EXPECT_EQ(pow_one_minus(0.3, -1.0), 1.0);
}

TEST(Clamps, Behave) {
  EXPECT_EQ(clamp01(-0.5), 0.0);
  EXPECT_EQ(clamp01(0.5), 0.5);
  EXPECT_EQ(clamp01(1.5), 1.0);
  EXPECT_EQ(clamp_non_negative(-3.0), 0.0);
  EXPECT_EQ(clamp_non_negative(3.0), 3.0);
  EXPECT_EQ(clamp_to(5.0, 0.0, 4.0), 4.0);
  EXPECT_EQ(clamp_to(-1.0, 0.0, 4.0), 0.0);
}

TEST(Apportion, SumsExactlyToTotal) {
  for (int total : {0, 1, 7, 100, 101, 999}) {
    const auto out = apportion(total, {1.0, 2.0, 3.0}, false);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), total);
  }
}

TEST(Apportion, ProportionalAtExactMultiples) {
  const auto out = apportion(60, {1.0, 2.0, 3.0}, false);
  EXPECT_EQ(out, (std::vector<int>{10, 20, 30}));
}

TEST(Apportion, AtLeastOneGuarantee) {
  const auto out = apportion(5, {100.0, 1.0, 1.0, 1.0, 1.0}, true);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 5);
  for (int v : out) EXPECT_GE(v, 1);
}

TEST(Apportion, WithoutGuaranteeSmallTotalsCanStarve) {
  const auto out = apportion(1, {100.0, 1.0}, false);
  EXPECT_EQ(out, (std::vector<int>{1, 0}));
}

TEST(Apportion, RejectsBadInput) {
  EXPECT_THROW(apportion(-1, {1.0}, false), std::invalid_argument);
  EXPECT_THROW(apportion(5, {1.0, -1.0}, false), std::invalid_argument);
  EXPECT_THROW(apportion(5, {0.0, 0.0}, false), std::invalid_argument);
}

TEST(Apportion, ZeroWeightEntriesGetNothing) {
  const auto out = apportion(10, {1.0, 0.0, 1.0}, true);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 10);
}

}  // namespace
}  // namespace sos::common
