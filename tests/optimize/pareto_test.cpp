// Pareto utilities: dominance axioms (irreflexive, antisymmetric,
// transitive), frontier extraction against a brute-force reference, tie and
// duplicate-key semantics, and the incremental archive_insert used by SA.
#include "optimize/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace sos::optimize {
namespace {

EvaluatedDesign make(const std::string& key, double cost, double p) {
  EvaluatedDesign out;
  // Encode the key into the point coordinates so point.key() is stable and
  // unique without materializing a real design.
  out.point.layers = 1;
  out.point.sos_nodes = 1;
  out.point.mapping = key;
  out.point.distribution = "even";
  out.cost = cost;
  out.worst.p_success = p;
  return out;
}

/// O(n^2) reference: keep everything no point dominates, dedup by key.
std::vector<EvaluatedDesign> brute_frontier(
    std::vector<EvaluatedDesign> points) {
  std::vector<EvaluatedDesign> out;
  std::set<std::string> kept;
  for (const auto& a : points) {
    bool dominated = false;
    for (const auto& b : points)
      if (dominates(b, a)) dominated = true;
    if (!dominated && kept.insert(a.point.key()).second) out.push_back(a);
  }
  std::sort(out.begin(), out.end(), frontier_less);
  return out;
}

TEST(Pareto, DominanceAxioms) {
  // Objective: maximize P_S, minimize cost — a dominates b when
  // a.cost <= b.cost and a.p >= b.p, strict somewhere.
  const auto a = make("a", 10.0, 0.5);
  const auto cheaper_weaker = make("b", 5.0, 0.3);  // incomparable with a
  const auto better_both = make("c", 5.0, 0.6);     // cheaper AND stronger
  const auto equal = make("d", 10.0, 0.5);
  const auto worse_both = make("e", 20.0, 0.4);

  EXPECT_FALSE(dominates(a, a)) << "irreflexive";
  EXPECT_TRUE(dominates(better_both, a));
  EXPECT_FALSE(dominates(a, better_both)) << "antisymmetric";
  EXPECT_FALSE(dominates(a, cheaper_weaker));
  EXPECT_FALSE(dominates(cheaper_weaker, a)) << "incomparable pair";
  EXPECT_FALSE(dominates(a, equal));
  EXPECT_FALSE(dominates(equal, a)) << "equal points never dominate";

  // Transitivity on the chain better_both > a > worse_both.
  EXPECT_TRUE(dominates(a, worse_both));
  EXPECT_TRUE(dominates(better_both, worse_both));
}

TEST(Pareto, StrictInOneCoordinateSuffices) {
  const auto base = make("base", 5.0, 0.2);
  EXPECT_TRUE(dominates(make("p", 5.0, 0.3), base)) << "same cost, higher p";
  EXPECT_TRUE(dominates(make("c", 4.0, 0.2), base)) << "same p, lower cost";
  EXPECT_FALSE(dominates(make("w", 9.0, 0.1), base));
}

TEST(Pareto, FrontierMatchesBruteForceReference) {
  std::vector<EvaluatedDesign> points;
  // A deterministic scatter with ties, duplicates and dominated chains.
  const double costs[] = {1, 2, 2, 3, 4, 5, 5, 6, 7, 8};
  const double ps[] = {0.1, 0.3, 0.3, 0.2, 0.5, 0.45, 0.5, 0.6, 0.6, 0.9};
  for (int i = 0; i < 10; ++i)
    points.push_back(
        make(std::string("d").append(std::to_string(i)), costs[i], ps[i]));

  const auto fast = pareto_frontier(points);
  const auto slow = brute_frontier(points);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].point.key(), slow[i].point.key());
    EXPECT_EQ(fast[i].cost, slow[i].cost);
    EXPECT_EQ(fast[i].p_success(), slow[i].p_success());
  }

  // Frontier members are mutually non-dominated and canonically sorted.
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(frontier_less(fast[i - 1], fast[i]));
    }
    for (std::size_t j = 0; j < fast.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(dominates(fast[i], fast[j]));
      }
    }
  }
}

TEST(Pareto, EqualPointsWithDistinctKeysBothSurvive) {
  const auto frontier = pareto_frontier(
      {make("first", 3.0, 0.4), make("second", 3.0, 0.4)});
  ASSERT_EQ(frontier.size(), 2u);
}

TEST(Pareto, DuplicateKeysCollapse) {
  const auto frontier = pareto_frontier(
      {make("same", 3.0, 0.4), make("same", 3.0, 0.4)});
  ASSERT_EQ(frontier.size(), 1u);
}

TEST(Pareto, ArchiveInsertMatchesBatchFrontier) {
  std::vector<EvaluatedDesign> points;
  const double costs[] = {4, 1, 6, 2, 5, 3, 7, 2, 8, 1};
  const double ps[] = {0.4, 0.15, 0.7, 0.1, 0.4, 0.35, 0.65, 0.2, 0.9, 0.15};
  for (int i = 0; i < 10; ++i)
    points.push_back(
        make(std::string("p").append(std::to_string(i)), costs[i], ps[i]));

  std::vector<EvaluatedDesign> archive;
  for (const auto& point : points) archive_insert(archive, point);
  auto incremental = pareto_frontier(archive);
  const auto batch = pareto_frontier(points);
  ASSERT_EQ(incremental.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(incremental[i].point.key(), batch[i].point.key());
}

TEST(Pareto, ArchiveInsertRejectsDominatedAndDuplicates) {
  std::vector<EvaluatedDesign> archive;
  EXPECT_TRUE(archive_insert(archive, make("a", 5.0, 0.5)));
  EXPECT_FALSE(archive_insert(archive, make("a", 5.0, 0.5)))
      << "duplicate key";
  EXPECT_FALSE(archive_insert(archive, make("b", 6.0, 0.4)))
      << "dominated candidate";
  EXPECT_TRUE(archive_insert(archive, make("c", 4.0, 0.6)))
      << "dominating candidate enters";
  EXPECT_EQ(archive.size(), 1u) << "dominated member evicted";
  EXPECT_EQ(archive.front().point.key(),
            make("c", 0, 0).point.key());
}

}  // namespace
}  // namespace sos::optimize
