#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hicsync::cli {
namespace {

// argv for a Cursor: argv[0] is the tool, the rest the given arguments.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "tool");
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

Cursor cursor(Argv& a) { return Cursor(a.argc(), a.argv(), 1, "usage\n", 7); }

TEST(Cli, ParseCountAcceptsDigitsOnly) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_count("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_count("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  for (const char* bad : {"", "-5", "+5", " 5", "5 ", "5x", "x", "1.5",
                          "0x10", "18446744073709551616"}) {
    v = 42;
    EXPECT_FALSE(parse_count(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42u) << "'" << bad << "' must leave the output alone";
  }
}

TEST(Cli, ParseRealRejectsSignTrailingAndNonFinite) {
  double v = 0.0;
  EXPECT_TRUE(parse_real("125", &v));
  EXPECT_EQ(v, 125.0);
  EXPECT_TRUE(parse_real("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_real(".5", &v));
  EXPECT_EQ(v, 0.5);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc", "inf",
                          "nan", "1e999"}) {
    v = 3.0;
    EXPECT_FALSE(parse_real(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 3.0) << "'" << bad << "' must leave the output alone";
  }
}

TEST(Cli, ValueTakesSpaceAndEqualsForms) {
  Argv a({"--out", "x.txt", "--out=y.txt", "--outer", "--out="});
  Cursor c = cursor(a);
  std::string v;
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.value("--out", &v));
  EXPECT_EQ(v, "x.txt");
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.value("--out", &v));
  EXPECT_EQ(v, "y.txt");
  ASSERT_TRUE(c.next());
  EXPECT_FALSE(c.value("--out", &v)) << "a longer flag is not a match";
  EXPECT_TRUE(c.is_option());
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.value("--out", &v));
  EXPECT_EQ(v, "");
  EXPECT_FALSE(c.next());
}

TEST(Cli, OptionalValueNeverConsumesTheNextArgument) {
  Argv a({"--profile", "input.hic", "--profile=p.json"});
  Cursor c = cursor(a);
  std::optional<std::string> v = "stale";
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.optional("--profile", &v));
  EXPECT_FALSE(v.has_value());
  ASSERT_TRUE(c.next());
  EXPECT_EQ(c.arg(), "input.hic");
  EXPECT_FALSE(c.optional("--profile", &v));
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.optional("--profile", &v));
  EXPECT_EQ(v, "p.json");
}

TEST(Cli, FlagsAndOperands) {
  Argv a({"--json", "-", "-h", "file"});
  Cursor c = cursor(a);
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.flag("--json"));
  EXPECT_FALSE(c.flag("--js"));
  ASSERT_TRUE(c.next());
  EXPECT_FALSE(c.is_option()) << "a lone '-' is the stdin operand";
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.help());
  ASSERT_TRUE(c.next());
  EXPECT_FALSE(c.is_option());
}

TEST(Cli, CountsParseIntoTheTargetType) {
  Argv a({"--passes", "3", "--cycles=12345678901"});
  Cursor c = cursor(a);
  int passes = 0;
  std::uint64_t cycles = 0;
  ASSERT_TRUE(c.next());
  EXPECT_FALSE(c.count("--cycles", &cycles));
  EXPECT_TRUE(c.count("--passes", &passes));
  EXPECT_EQ(passes, 3);
  ASSERT_TRUE(c.next());
  EXPECT_TRUE(c.count("--cycles", &cycles));
  EXPECT_EQ(cycles, 12345678901ull);
}

TEST(Cli, MissingValuePrintsUsageAndExitsWithTheUsageCode) {
  Argv a({"--out"});
  EXPECT_EXIT(
      {
        Cursor c = cursor(a);
        std::string v;
        c.next();
        c.value("--out", &v);
      },
      ::testing::ExitedWithCode(7), "^usage\n$");
}

TEST(Cli, MalformedCountNamesTheFlag) {
  Argv a({"--max-states", "foo"});
  EXPECT_EXIT(
      {
        Cursor c = cursor(a);
        std::uint64_t v = 0;
        c.next();
        c.count("--max-states", &v);
      },
      ::testing::ExitedWithCode(7),
      "bad --max-states 'foo': expected a non-negative integer");
}

TEST(Cli, CountTooLargeForTheTargetIsRejected) {
  Argv a({"--passes=2147483648"});
  EXPECT_EXIT(
      {
        Cursor c = cursor(a);
        int v = 0;
        c.next();
        c.count("--passes", &v);
      },
      ::testing::ExitedWithCode(7), "bad --passes '2147483648'");
}

TEST(Cli, MalformedRealNamesTheFlag) {
  Argv a({"--min=-5"});
  EXPECT_EXIT(
      {
        Cursor c = cursor(a);
        double v = 0.0;
        c.next();
        c.real("--min", &v);
      },
      ::testing::ExitedWithCode(7),
      "bad --min '-5': expected a non-negative number");
}

TEST(Cli, TakeConsumesASecondValue) {
  Argv a({"--diff", "a", "b"});
  Cursor c = cursor(a);
  std::string first;
  ASSERT_TRUE(c.next());
  ASSERT_TRUE(c.value("--diff", &first));
  EXPECT_EQ(first, "a");
  EXPECT_EQ(c.take(), "b");
  EXPECT_FALSE(c.next());
}

TEST(Cli, ErrorsReturnTheUsageCode) {
  Argv a({"--bogus"});
  Cursor c = cursor(a);
  ASSERT_TRUE(c.next());
  testing::internal::CaptureStderr();
  EXPECT_EQ(c.unknown_option(), 7);
  EXPECT_EQ(c.error("bad thing"), 7);
  EXPECT_EQ(c.usage_error(), 7);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "unknown option '--bogus'\nusage\nbad thing\nusage\n");
}

TEST(Cli, ReadSourceNamesTheFileAndReportsAMissingOne) {
  const std::string path = ::testing::TempDir() + "cli_read_source.hic";
  std::ofstream(path) << "thread t () {}\n";
  std::optional<Source> s = read_source(path);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->text, "thread t () {}\n");
  EXPECT_EQ(s->name, path);

  testing::internal::CaptureStderr();
  EXPECT_FALSE(read_source("no/such/file.hic").has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot open 'no/such/file.hic'\n");
}

TEST(Cli, WriteFileAnnouncesTruncatesAndAppends) {
  const std::string path = ::testing::TempDir() + "cli_write_file.txt";
  auto slurp = [&path] {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  testing::internal::CaptureStdout();
  EXPECT_TRUE(write_file(path, "one\n"));
  EXPECT_TRUE(write_file(path, "two\n", Write::Quiet));
  EXPECT_TRUE(write_file(path, "three\n", Write::Append));
  EXPECT_TRUE(write_file("", "to stdout\n"));
  std::fflush(stdout);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "wrote " + path + "\nto stdout\n");
  EXPECT_EQ(slurp(), "two\nthree\n");

  testing::internal::CaptureStderr();
  EXPECT_FALSE(write_file("no/such/dir/out.txt", "x"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot write 'no/such/dir/out.txt'\n");
}

}  // namespace
}  // namespace hicsync::cli
