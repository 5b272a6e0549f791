#include "common/string_util.h"

#include <gtest/gtest.h>

namespace crowdfusion::common {
namespace {

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinBasic) {
  EXPECT_EQ(Join({"a", "b"}, "; "), "a; b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string text = "x|yy|zzz";
  EXPECT_EQ(Join(Split(text, '|'), "|"), text);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC 123"), "abc 123");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("k=%d Pc=%.2f", 3, 0.8), "k=3 Pc=0.80");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace crowdfusion::common
