#include "attack/knowledge.h"

#include <vector>

#include <gtest/gtest.h>

namespace sos::attack {
namespace {

TEST(AttackerKnowledge, StartsEmpty) {
  const AttackerKnowledge knowledge{100, 10};
  EXPECT_EQ(knowledge.attempted_count(), 0);
  EXPECT_EQ(knowledge.disclosed_count(), 0);
  EXPECT_EQ(knowledge.pending_count(), 0);
  EXPECT_EQ(knowledge.disclosed_filter_count(), 0);
  EXPECT_FALSE(knowledge.attempted(5));
  EXPECT_FALSE(knowledge.disclosed(5));
}

TEST(AttackerKnowledge, DiscloseThenAttemptMovesOutOfPending) {
  AttackerKnowledge knowledge{100, 10};
  EXPECT_TRUE(knowledge.disclose(7));
  EXPECT_EQ(knowledge.pending_count(), 1);
  std::vector<int> pending;
  knowledge.pending_into(pending);
  EXPECT_EQ(pending, std::vector<int>{7});

  knowledge.mark_attempted(7);
  EXPECT_EQ(knowledge.pending_count(), 0);
  knowledge.pending_into(pending);
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(knowledge.disclosed(7));
  EXPECT_TRUE(knowledge.attempted(7));
}

TEST(AttackerKnowledge, AttemptThenDiscloseIsNotPending) {
  AttackerKnowledge knowledge{100, 10};
  knowledge.mark_attempted(3);
  EXPECT_TRUE(knowledge.disclose(3));
  EXPECT_EQ(knowledge.pending_count(), 0);
  EXPECT_EQ(knowledge.disclosed_count(), 1);
}

TEST(AttackerKnowledge, OperationsAreIdempotent) {
  AttackerKnowledge knowledge{100, 10};
  EXPECT_TRUE(knowledge.disclose(1));
  EXPECT_FALSE(knowledge.disclose(1));
  EXPECT_EQ(knowledge.disclosed_count(), 1);
  EXPECT_EQ(knowledge.pending_count(), 1);

  knowledge.mark_attempted(1);
  knowledge.mark_attempted(1);
  EXPECT_EQ(knowledge.attempted_count(), 1);
  EXPECT_EQ(knowledge.pending_count(), 0);

  EXPECT_TRUE(knowledge.disclose_filter(4));
  EXPECT_FALSE(knowledge.disclose_filter(4));
  EXPECT_EQ(knowledge.disclosed_filter_count(), 1);
}

TEST(AttackerKnowledge, PendingListsAllUnattemptedDisclosures) {
  AttackerKnowledge knowledge{50, 5};
  knowledge.disclose(10);
  knowledge.disclose(20);
  knowledge.disclose(30);
  knowledge.mark_attempted(20);
  std::vector<int> pending{99};  // overwritten, not appended to
  knowledge.pending_into(pending);
  EXPECT_EQ(pending, (std::vector<int>{10, 30}));
}

TEST(AttackerKnowledge, BoundsChecked) {
  AttackerKnowledge knowledge{10, 2};
  EXPECT_THROW(knowledge.disclose(10), std::out_of_range);
  EXPECT_THROW(knowledge.mark_attempted(-1), std::out_of_range);
  EXPECT_THROW(knowledge.disclose_filter(2), std::out_of_range);
  EXPECT_THROW(AttackerKnowledge(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace sos::attack
