#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

namespace sos::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng{7};
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng{13};
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng{17};
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{19};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-2.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng{23};
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng rng{29};
  Rng child = rng.fork();
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (rng.next() == child.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng{31};
  for (std::uint64_t population : {1ull, 5ull, 100ull, 10000ull}) {
    for (std::uint64_t k : {std::uint64_t{0}, population / 2, population}) {
      const auto sample = rng.sample_without_replacement(population, k);
      EXPECT_EQ(sample.size(), k);
      std::set<std::uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (const auto v : sample) EXPECT_LT(v, population);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulationIsPermutation) {
  Rng rng{37};
  const auto sample = rng.sample_without_replacement(50, 50);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(Rng, SampleWithoutReplacementCoversUniformly) {
  Rng rng{41};
  std::vector<int> hits(20, 0);
  constexpr int kRounds = 20000;
  for (int r = 0; r < kRounds; ++r)
    for (const auto v : rng.sample_without_replacement(20, 3)) ++hits[v];
  // Each element appears with probability 3/20 per round.
  for (int h : hits) {
    EXPECT_GT(h, kRounds * 3 / 20 * 0.9);
    EXPECT_LT(h, kRounds * 3 / 20 * 1.1);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{43};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(123), mix64(123));
  EXPECT_NE(mix64(123), mix64(124));
}

TEST(Rng, SampleIntoConsumesTheSameStreamAsTheAllocatingOverload) {
  // The into-variant must draw identical values AND leave the generator in
  // the same state, across both the dense (Fisher-Yates) and sparse (Floyd)
  // regimes, even when the scratch is reused between calls of different
  // shapes.
  Rng reference{77};
  Rng reused{77};
  SampleScratch scratch;
  std::vector<std::uint64_t> dest;
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {100, 90}, {1000, 3}, {50, 50}, {100000, 5}, {8, 1}, {1000, 400}};
  for (const auto& [population, k] : shapes) {
    const auto expected = reference.sample_without_replacement(population, k);
    reused.sample_without_replacement_into(population, k, dest, scratch);
    EXPECT_EQ(dest, expected) << "population=" << population << " k=" << k;
  }
  // Generators must agree afterwards.
  EXPECT_EQ(reference.next(), reused.next());
}

/// Robert Floyd's algorithm on a std::unordered_set: an implementation of
/// the sparse draw that shares nothing with Rng's membership structures.
std::vector<std::uint64_t> floyd_reference(Rng& rng, std::uint64_t population,
                                           std::uint64_t k) {
  std::vector<std::uint64_t> out;
  std::unordered_set<std::uint64_t> drawn;
  for (std::uint64_t j = population - k; j < population; ++j) {
    const std::uint64_t t = rng.next_below(j + 1);
    const std::uint64_t value = drawn.count(t) == 0 ? t : j;
    drawn.insert(value);
    out.push_back(value);
  }
  return out;
}

TEST(Rng, SparseDrawsMatchAnIndependentFloydOnEitherMembershipStructure) {
  // Sparse shapes (3k < population) on both sides of the 64·k switch between
  // the stamp array and the hash set, and of the 2^22 population limit that
  // chose between them before; one scratch serves every shape.
  constexpr std::uint64_t kOldLimit = std::uint64_t{1} << 22;
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {64 * 50, 50},       {64 * 50 + 1, 50}, {1000, 100},
      {10'000, 100},       {10'000, 3000},    {1'000'000, 2000},
      {kOldLimit, 2000},   {kOldLimit + 1, 2000},
      {kOldLimit, 70'000}, {kOldLimit + 1, 70'000}, {64 * 3, 3},
  };
  Rng reference{2024};
  Rng tested{2024};
  SampleScratch scratch;
  std::vector<std::uint64_t> dest;
  for (const auto& [population, k] : shapes) {
    ASSERT_LT(k * 3, population);
    const auto expected = floyd_reference(reference, population, k);
    tested.sample_without_replacement_into(population, k, dest, scratch);
    EXPECT_EQ(dest, expected) << "population=" << population << " k=" << k;
  }
  EXPECT_EQ(reference.next(), tested.next());

  // A sparse draw from a large population costs O(k), not O(population):
  // 2,000 of 1e6 never touches the stamp array, and the set holds fewer
  // than 8·k slots of 12 bytes.
  SampleScratch fresh;
  tested.sample_without_replacement_into(1'000'000, 2000, dest, fresh);
  EXPECT_TRUE(fresh.stamp.empty());
  EXPECT_LE(fresh.footprint_bytes(), 2000u * 96u);
}

}  // namespace
}  // namespace sos::common
