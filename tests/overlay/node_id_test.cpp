#include "overlay/node_id.h"

#include <gtest/gtest.h>

#include <limits>

namespace sos::overlay {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(NodeId, RingDistanceBasics) {
  EXPECT_EQ(ring_distance(NodeId{0}, NodeId{5}), 5u);
  EXPECT_EQ(ring_distance(NodeId{5}, NodeId{5}), 0u);
  EXPECT_EQ(ring_distance(NodeId{5}, NodeId{0}), kMax - 4);  // wraps
}

TEST(NodeId, RingDistanceWrapsAtBoundary) {
  EXPECT_EQ(ring_distance(NodeId{kMax}, NodeId{0}), 1u);
  EXPECT_EQ(ring_distance(NodeId{kMax - 1}, NodeId{1}), 3u);
}

TEST(NodeId, OpenOpenInterval) {
  EXPECT_TRUE(in_interval_open_open(NodeId{10}, NodeId{20}, NodeId{15}));
  EXPECT_FALSE(in_interval_open_open(NodeId{10}, NodeId{20}, NodeId{20}));
  EXPECT_FALSE(in_interval_open_open(NodeId{10}, NodeId{20}, NodeId{10}));
  EXPECT_FALSE(in_interval_open_open(NodeId{7}, NodeId{7}, NodeId{3}));
}

TEST(NodeId, FingerStartsAreOffsets) {
  const NodeId id{100};
  EXPECT_EQ(finger_start(id, 0).value, 101u);
  EXPECT_EQ(finger_start(id, 1).value, 102u);
  EXPECT_EQ(finger_start(id, 10).value, 100u + 1024u);
  // Wrap-around is fine (unsigned arithmetic).
  EXPECT_EQ(finger_start(NodeId{kMax}, 0).value, 0u);
}

TEST(NodeId, FromIndexSpreadsAndIsDeterministic) {
  const auto a = node_id_from_index(1, 42);
  const auto b = node_id_from_index(2, 42);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, node_id_from_index(1, 42));
  EXPECT_NE(a, node_id_from_index(1, 43));  // seed matters
  // Consecutive indices should not be adjacent on the ring.
  EXPECT_GT(ring_distance(a, b), 1000u);
}

}  // namespace
}  // namespace sos::overlay
