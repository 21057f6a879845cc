#include "common/cli.h"

#include <gtest/gtest.h>

namespace sos::common {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args{static_cast<int>(argv.size()), argv.data()};
}

TEST(Args, ParsesEqualsForm) {
  const auto args = make_args({"--layers=4", "--nc=2000"});
  EXPECT_EQ(args.get_int("layers", 0), 4);
  EXPECT_EQ(args.get_int("nc", 0), 2000);
}

TEST(Args, ParsesSpaceForm) {
  const auto args = make_args({"--layers", "4"});
  EXPECT_EQ(args.get_int("layers", 0), 4);
}

TEST(Args, BareFlagIsTrue) {
  const auto args = make_args({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, FallbacksWhenMissing) {
  const auto args = make_args({});
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_EQ(args.get_double("y", 1.5), 1.5);
  EXPECT_EQ(args.get_string("z", "d"), "d");
  EXPECT_FALSE(args.get_bool("w", false));
}

TEST(Args, TypedParseErrorsThrow) {
  const auto args = make_args({"--n=abc", "--b=maybe"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("b", false), std::invalid_argument);
}

TEST(Args, PositionalCollected) {
  const auto args = make_args({"file1", "--k=v", "file2"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(Args, UnusedKeysReported) {
  const auto args = make_args({"--used=1", "--typo=2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  EXPECT_EQ(args.unused_keys(), (std::vector<std::string>{"typo"}));
}

TEST(Args, BooleanSpellings) {
  const auto args = make_args({"--a=yes", "--b=off", "--c=1", "--d=false"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

}  // namespace
}  // namespace sos::common
