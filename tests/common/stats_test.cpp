#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace sos::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.std_error(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(MeanConfidenceInterval, ShrinksWithSamples) {
  Rng rng{7};
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) small.add(rng.next_double());
  for (int i = 0; i < 10000; ++i) large.add(rng.next_double());
  EXPECT_GT(mean_confidence_interval(small).width(),
            mean_confidence_interval(large).width());
}

TEST(WilsonInterval, ContainsPointEstimate) {
  const auto ci = wilson_interval(30, 100);
  EXPECT_LT(ci.lo, 0.3);
  EXPECT_GT(ci.hi, 0.3);
  EXPECT_TRUE(ci.contains(0.3));
}

TEST(WilsonInterval, BoundedAtExtremes) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto all = wilson_interval(50, 50);
  EXPECT_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
}

TEST(WilsonInterval, NoTrialsIsVacuous) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(WilsonInterval, MatchesPublishedReferenceValues) {
  // Newcombe (1998), "Two-sided confidence intervals for the single
  // proportion", worked examples for the Wilson score method at 95%:
  //   81/263 -> (0.2553, 0.3662)      15/148 -> (0.0624, 0.1605)
  //   0/20   -> (0.0000, 0.1611)      1/29   -> (0.0061, 0.1718)
  const auto a = wilson_interval(81, 263);
  EXPECT_NEAR(a.lo, 0.2553, 5e-4);
  EXPECT_NEAR(a.hi, 0.3662, 5e-4);
  const auto b = wilson_interval(15, 148);
  EXPECT_NEAR(b.lo, 0.0624, 5e-4);
  EXPECT_NEAR(b.hi, 0.1605, 5e-4);
  const auto c = wilson_interval(0, 20);
  EXPECT_NEAR(c.lo, 0.0, 5e-4);
  EXPECT_NEAR(c.hi, 0.1611, 5e-4);
  const auto d = wilson_interval(1, 29);
  EXPECT_NEAR(d.lo, 0.0061, 5e-4);
  EXPECT_NEAR(d.hi, 0.1718, 5e-4);
}

TEST(WilsonInterval, ZeroSuccessUpperBoundClosedForm) {
  // k = 0 collapses the score interval to [0, z^2 / (n + z^2)] — the
  // closed form behind the "rule of three" regime. n=10, z=1.96:
  // 3.8416 / 13.8416 = 0.2775401687...
  const auto ci = wilson_interval(0, 10);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_NEAR(ci.hi, 0.2775401687666166, 1e-12);
}

TEST(WilsonInterval, AllSuccessMirrorsZeroSuccess) {
  // k = n is the k = 0 interval reflected about 1/2.
  const auto none = wilson_interval(0, 10);
  const auto all = wilson_interval(10, 10);
  EXPECT_EQ(all.hi, 1.0);
  EXPECT_NEAR(all.lo, 1.0 - none.hi, 1e-12);
}

TEST(WilsonInterval, CoversTrueProportion) {
  // Frequentist sanity: ~95% of intervals should contain p.
  Rng rng{123};
  const double p = 0.2;
  int covered = 0;
  constexpr int kReps = 400;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t hits = 0;
    constexpr std::uint64_t kTrials = 200;
    for (std::uint64_t t = 0; t < kTrials; ++t)
      if (rng.bernoulli(p)) ++hits;
    if (wilson_interval(hits, kTrials).contains(p)) ++covered;
  }
  EXPECT_GT(covered, kReps * 90 / 100);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(quantile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(v, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(quantile(v, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(quantile(v, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(Quantile, UnsortedInputHandled) {
  std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_NEAR(quantile(v, 0.5), 5.0, 1e-12);
}

}  // namespace
}  // namespace sos::common
