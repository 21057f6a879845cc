#include "common/strings.h"

#include <gtest/gtest.h>

namespace sos::common {
namespace {

TEST(Split, Basics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("trailing,", ','),
            (std::vector<std::string>{"trailing", ""}));
}

TEST(Trim, Basics) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(FormatDouble, PrecisionAndNegativeZero) {
  EXPECT_EQ(format_double(0.12345, 3), "0.123");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.0, 2), "0.00");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

TEST(Pad, Basics) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");  // no truncation
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

}  // namespace
}  // namespace sos::common
