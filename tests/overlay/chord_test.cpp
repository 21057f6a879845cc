#include "overlay/chord.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "overlay/network.h"

namespace sos::overlay {
namespace {

std::vector<NodeId> make_ids(int count, std::uint64_t seed = 7) {
  Network network{count, seed};
  return network.ids();
}

bool all_alive(int) { return true; }

TEST(ChordRing, RejectsEmptyAndDuplicateIds) {
  EXPECT_THROW(ChordRing{std::vector<NodeId>{}}, std::invalid_argument);
  EXPECT_THROW(ChordRing(std::vector<NodeId>{NodeId{1}, NodeId{1}}),
               std::invalid_argument);
}

TEST(ChordRing, SuccessorIndexMatchesLinearScan) {
  const auto ids = make_ids(64);
  const ChordRing ring{ids};
  common::Rng rng{3};
  for (int probe = 0; probe < 2000; ++probe) {
    const NodeId key{rng.next()};
    const int got = ring.successor_index(key);
    // Linear reference: node with smallest clockwise distance from key.
    int expected = 0;
    std::uint64_t best = ring_distance(key, ring.id_at(0));
    for (int i = 1; i < ring.size(); ++i) {
      const std::uint64_t d = ring_distance(key, ring.id_at(i));
      if (d < best) {
        best = d;
        expected = i;
      }
    }
    ASSERT_EQ(got, expected) << "key=" << key.value;
  }
}

TEST(ChordRing, FingersAreSuccessorsOfFingerStarts) {
  const auto ids = make_ids(50);
  const ChordRing ring{ids};
  for (int node = 0; node < ring.size(); node += 7) {
    for (int k = 0; k < 64; k += 5) {
      const int finger = ring.finger(node, k);
      EXPECT_EQ(finger,
                ring.successor_index(finger_start(ring.id_at(node), k)));
    }
  }
}

TEST(ChordRing, SuccessorListWalksTheSortedOrder) {
  const auto ids = make_ids(20);
  const ChordRing ring{ids};
  for (int node = 0; node < ring.size(); ++node) {
    EXPECT_EQ(ring.successor(node, 0), (node + 1) % ring.size());
    EXPECT_EQ(ring.successor(node, 3), (node + 4) % ring.size());
  }
  EXPECT_THROW(ring.successor(0, ChordRing::kSuccessorListSize),
               std::out_of_range);
}

TEST(ChordRing, LookupFindsTheResponsibleNode) {
  const auto ids = make_ids(128);
  const ChordRing ring{ids};
  common::Rng rng{11};
  for (int probe = 0; probe < 500; ++probe) {
    const int from = static_cast<int>(rng.next_below(ring.size()));
    const NodeId key{rng.next()};
    const auto result = ring.lookup(from, key, all_alive);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.destination, ring.successor_index(key));
    EXPECT_EQ(result.path.front(), from);
    EXPECT_EQ(result.path.back(), result.destination);
  }
}

TEST(ChordRing, LookupIsLogarithmic) {
  // Chord's classic bound: O(log n) hops with high probability. Allow the
  // standard 2*log2(n) envelope.
  for (const int size : {64, 512, 4096}) {
    const ChordRing ring{make_ids(size)};
    common::Rng rng{13};
    const double bound = 2.0 * std::log2(static_cast<double>(size)) + 2.0;
    double total_hops = 0.0;
    constexpr int kProbes = 300;
    for (int probe = 0; probe < kProbes; ++probe) {
      const int from = static_cast<int>(rng.next_below(ring.size()));
      const auto result = ring.lookup(from, NodeId{rng.next()}, all_alive);
      ASSERT_TRUE(result.ok);
      EXPECT_LE(result.hops, static_cast<int>(bound) + 4);
      total_hops += result.hops;
    }
    EXPECT_LE(total_hops / kProbes, bound);
  }
}

TEST(ChordRing, LookupOnSingletonRing) {
  const ChordRing ring{std::vector<NodeId>{NodeId{42}}};
  const auto result = ring.lookup(0, NodeId{7}, all_alive);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.destination, 0);
  EXPECT_EQ(result.hops, 0);
}

TEST(ChordRing, LookupFailsWhenOriginDead) {
  const ChordRing ring{make_ids(16)};
  const auto result =
      ring.lookup(3, NodeId{123}, [](int node) { return node != 3; });
  EXPECT_FALSE(result.ok);
}

TEST(ChordRing, LookupFailsWhenDestinationDead) {
  const ChordRing ring{make_ids(16)};
  common::Rng rng{17};
  const NodeId key{rng.next()};
  const int dest = ring.successor_index(key);
  const int from = (dest + 5) % ring.size();
  const auto result =
      ring.lookup(from, key, [dest](int node) { return node != dest; });
  EXPECT_FALSE(result.ok);
}

TEST(ChordRing, LookupRoutesAroundDeadFingers) {
  const ChordRing ring{make_ids(256)};
  common::Rng rng{19};
  // Kill 30% of nodes; lookups between surviving nodes should mostly
  // succeed thanks to finger fallback + successor lists.
  std::set<int> dead;
  while (dead.size() < 76) {
    dead.insert(static_cast<int>(rng.next_below(ring.size())));
  }
  const auto alive = [&dead](int node) { return dead.count(node) == 0; };
  int attempted = 0, succeeded = 0;
  for (int probe = 0; probe < 400; ++probe) {
    const int from = static_cast<int>(rng.next_below(ring.size()));
    const NodeId key{rng.next()};
    const int dest = ring.successor_index(key);
    if (!alive(from) || !alive(dest)) continue;
    ++attempted;
    if (ring.lookup(from, key, alive).ok) ++succeeded;
  }
  ASSERT_GT(attempted, 100);
  EXPECT_GT(static_cast<double>(succeeded) / attempted, 0.95);
}

TEST(ChordRing, LookupPathOnlyVisitsAliveNodes) {
  const ChordRing ring{make_ids(128)};
  common::Rng rng{23};
  std::set<int> dead;
  while (dead.size() < 30)
    dead.insert(static_cast<int>(rng.next_below(ring.size())));
  const auto alive = [&dead](int node) { return dead.count(node) == 0; };
  for (int probe = 0; probe < 200; ++probe) {
    const int from = static_cast<int>(rng.next_below(ring.size()));
    if (!alive(from)) continue;
    const auto result = ring.lookup(from, NodeId{rng.next()}, alive);
    if (!result.ok) continue;
    for (const int node : result.path) EXPECT_TRUE(alive(node));
  }
}

TEST(ChordRing, LookupTotalBlackoutFails) {
  const ChordRing ring{make_ids(32)};
  // Everyone except the origin is dead and the origin does not own the key.
  const auto result = ring.lookup(0, finger_start(ring.id_at(0), 40),
                                  [](int node) { return node == 0; });
  EXPECT_FALSE(result.ok);
}

TEST(ChordRing, LookupRejectsBadOrigin) {
  const ChordRing ring{make_ids(8)};
  EXPECT_THROW(ring.lookup(-1, NodeId{1}, all_alive), std::out_of_range);
  EXPECT_THROW(ring.lookup(8, NodeId{1}, all_alive), std::out_of_range);
}

}  // namespace
}  // namespace sos::overlay
