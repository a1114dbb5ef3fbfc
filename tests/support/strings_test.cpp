#include "support/strings.h"

#include <gtest/gtest.h>

namespace hicsync::support {
namespace {

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
}

TEST(Strings, TrimAllWhitespace) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Strings, TrimNothingToDo) { EXPECT_EQ(trim("x y"), "x y"); }

TEST(Strings, JoinBasic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, JoinEmpty) { EXPECT_EQ(join({}, ","), ""); }

TEST(Strings, JoinSingle) { EXPECT_EQ(join({"only"}, ","), "only"); }

TEST(Strings, Fnv1a64KnownAnswers) {
  // FNV-1a 64 reference vectors; the artifact and bundle digests must
  // never drift.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Strings, IndentMultiline) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
}

TEST(Strings, IndentSkipsEmptyLines) {
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");
}

TEST(Strings, FormatBasic) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(Strings, FormatEmpty) { EXPECT_EQ(format("%s", ""), ""); }

}  // namespace
}  // namespace hicsync::support
