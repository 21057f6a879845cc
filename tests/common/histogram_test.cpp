#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sos::common {
namespace {

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsPartitionTheRange) {
  Histogram h{0.0, 10.0, 5};
  EXPECT_EQ(h.bin_count(), 5);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(4), 10.0);
}

TEST(Histogram, ValuesLandInTheRightBin) {
  Histogram h{0.0, 10.0, 5};
  h.add(0.0);
  h.add(1.99);
  h.add(2.0);
  h.add(9.99);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(4), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h{0.0, 10.0, 5};
  h.add(-5.0);
  h.add(15.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(4), 1u);
}

TEST(Histogram, RenderShowsBarsAndCounts) {
  Histogram h{0.0, 4.0, 2};
  for (int i = 0; i < 8; ++i) h.add(1.0);
  h.add(3.0);
  const std::string out = h.render(8);
  EXPECT_NE(out.find("########"), std::string::npos);
  EXPECT_NE(out.find(" 8"), std::string::npos);
  EXPECT_NE(out.find(" 1"), std::string::npos);
}

}  // namespace
}  // namespace sos::common
