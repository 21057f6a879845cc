// common::ComplementIndex and common::radix_sort against brute force. The
// index maps every spill-over and conditioned break-in pick to its node, so
// node_at(p) must be exactly the p-th id outside the exclusion set for every
// population the simulator meets (one radix pass, two, a sparse 10^6) and
// every exclusion shape (empty, one edge id, runs, half the ids, all but one,
// unsorted lists with duplicates).
#include "common/complement_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace sos::common {
namespace {

/// The ids of [0, population) that `excluded` does not name, ascending.
std::vector<int> brute_complement(int population,
                                  const std::vector<int>& excluded) {
  std::vector<char> out(static_cast<std::size_t>(population), 0);
  for (const int id : excluded) out[static_cast<std::size_t>(id)] = 1;
  std::vector<int> complement;
  for (int id = 0; id < population; ++id)
    if (out[static_cast<std::size_t>(id)] == 0) complement.push_back(id);
  return complement;
}

std::vector<int> id_range(int begin, int end, int step = 1) {
  std::vector<int> ids;
  for (int id = begin; id < end; id += step) ids.push_back(id);
  return ids;
}

struct Shape {
  std::string name;
  std::vector<int> excluded;
};

/// Every exclusion shape at `population`, each listed in shuffled order.
std::vector<Shape> shapes(int population, Rng& rng) {
  std::vector<Shape> all{
      {"empty", {}},
      {"first id", {0}},
      {"last id", {population - 1}},
      {"contiguous run", id_range(population / 3, (2 * population) / 3 + 1)},
      {"every other id", id_range(1, population, 2)},
      {"all but one id", id_range(0, population)},
  };
  all.back().excluded.erase(all.back().excluded.begin() + population / 2);

  // Random ids with repeats, plus every edge id twice.
  Shape duplicates{"duplicates", {0, 0, population - 1, population - 1}};
  for (int i = 0; i < population / 4 + 1; ++i)
    duplicates.excluded.push_back(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(population))));
  const std::vector<int> copy = duplicates.excluded;
  duplicates.excluded.insert(duplicates.excluded.end(), copy.begin(),
                             copy.end());
  all.push_back(duplicates);

  for (Shape& shape : all) rng.shuffle(shape.excluded);
  return all;
}

void expect_matches_brute_force(int population, int sampled_positions) {
  Rng rng{0xc0ffeeULL + static_cast<std::uint64_t>(population)};
  ComplementIndex index;  // one index, rebuilt across shapes
  for (const Shape& shape : shapes(population, rng)) {
    SCOPED_TRACE(shape.name + " at N=" + std::to_string(population));
    index.build(population, shape.excluded);
    const std::vector<int> complement =
        brute_complement(population, shape.excluded);
    ASSERT_EQ(index.size(), static_cast<int>(complement.size()));
    const int size = index.size();
    if (sampled_positions == 0 || size <= sampled_positions) {
      for (int p = 0; p < size; ++p)
        ASSERT_EQ(index.node_at(p), complement[static_cast<std::size_t>(p)])
            << "position " << p;
      continue;
    }
    std::vector<int> positions{0, size - 1};
    for (int i = 0; i < sampled_positions; ++i)
      positions.push_back(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(size))));
    for (const int p : positions)
      ASSERT_EQ(index.node_at(p), complement[static_cast<std::size_t>(p)])
          << "position " << p;
  }
}

TEST(ComplementIndex, MatchesBruteForceAtOneNode) {
  expect_matches_brute_force(1, 0);
}

TEST(ComplementIndex, MatchesBruteForceAtOneRadixPass) {
  expect_matches_brute_force(64, 0);
}

TEST(ComplementIndex, MatchesBruteForceAtTwoRadixPasses) {
  // Ids up to 2048 need 12 bits: two 6-bit passes.
  expect_matches_brute_force(2049, 0);
}

TEST(ComplementIndex, MatchesBruteForceAtFiveThousand) {
  expect_matches_brute_force(5000, 0);
}

TEST(ComplementIndex, MatchesBruteForceAtAMillionSampled) {
  expect_matches_brute_force(1'000'000, 20'000);
}

TEST(ComplementIndex, SparseExclusionsAtAMillion) {
  // A few hundred scattered ids in 10^6: buckets thousands of positions wide.
  Rng rng{77};
  std::vector<int> excluded;
  for (int i = 0; i < 300; ++i)
    excluded.push_back(static_cast<int>(rng.next_below(1'000'000)));
  ComplementIndex index;
  index.build(1'000'000, excluded);
  const std::vector<int> complement = brute_complement(1'000'000, excluded);
  ASSERT_EQ(index.size(), static_cast<int>(complement.size()));
  for (int p = 0; p < index.size(); p += 7)
    ASSERT_EQ(index.node_at(p), complement[static_cast<std::size_t>(p)])
        << "position " << p;
}

TEST(RadixSort, SortsEveryIdWidthUpToIntMax) {
  Rng rng{5};
  std::vector<int> scratch;
  for (const int bound : {2, 3, 2048, 2049, 1 << 22, (1 << 22) + 1,
                          1'000'000'007, INT_MAX}) {
    SCOPED_TRACE("bound " + std::to_string(bound));
    std::vector<int> values{bound - 1, 0, bound - 1, 0};
    for (int i = 0; i < 3000; ++i)
      values.push_back(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound))));
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());
    radix_sort(values, bound, scratch);
    ASSERT_EQ(values, expected);
  }
}

TEST(RadixSort, KeepsTheExtremeIdsAtBoundIntMax) {
  // 31-bit ids take three passes; the top pass alone separates 0 from
  // 1 << 30.
  std::vector<int> values{INT_MAX - 1, 0, INT_MAX - 1, 1 << 30, 0};
  std::vector<int> scratch;
  radix_sort(values, INT_MAX, scratch);
  EXPECT_EQ(values,
            (std::vector<int>{0, 0, 1 << 30, INT_MAX - 1, INT_MAX - 1}));

  std::vector<int> single{INT_MAX - 1};
  radix_sort(single, INT_MAX, scratch);
  EXPECT_EQ(single, (std::vector<int>{INT_MAX - 1}));
}

}  // namespace
}  // namespace sos::common
