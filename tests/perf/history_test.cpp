#include "perf/history.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace hicsync::perf {
namespace {

/// A fresh, empty directory under the test temp dir.
std::string temp_dir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / leaf).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ParseBenchJson, FlatJsonBenchReportFormat) {
  const char* text = R"({
  "bench": "table1_arbitrated_area",
  "c2.luts": 130,
  "c2.ffs": 71,
  "note": "a label",
  "shape_ok": true
})";
  BenchRun run;
  std::string error;
  ASSERT_TRUE(parse_bench_json(text, &run, &error)) << error;
  EXPECT_EQ(run.bench, "table1_arbitrated_area");
  ASSERT_NE(run.metric("c2.luts"), nullptr);
  EXPECT_DOUBLE_EQ(*run.metric("c2.luts"), 130.0);
  EXPECT_TRUE(run.flag("shape_ok"));
  EXPECT_EQ(run.labels.at("note"), "a label");
  EXPECT_EQ(run.metric("note"), nullptr);
}

// google-benchmark's native report is not a supported format: it carries
// no "bench" key, so it is rejected like any other keyless report.
TEST(ParseBenchJson, GoogleBenchmarkFormat) {
  const char* text = R"({
  "context": {"date": "2026-08-06", "library_build_type": "release"},
  "benchmarks": [
    {"name": "BM_ParseFigure1", "run_type": "iteration",
     "iterations": 1000, "real_time": 1.5, "cpu_time": 1.4,
     "time_unit": "us"},
    {"name": "BM_ParseFigure1_mean", "run_type": "aggregate",
     "real_time": 2.0, "time_unit": "us"}
  ]
})";
  BenchRun run;
  std::string error;
  EXPECT_FALSE(parse_bench_json(text, &run, &error));
  EXPECT_EQ(error, "flat report without a \"bench\" key");
  EXPECT_TRUE(run.metrics.empty());
}

TEST(ParseBenchJson, RejectsGarbage) {
  BenchRun run;
  std::string error;
  EXPECT_FALSE(parse_bench_json("not json", &run, &error));
  EXPECT_FALSE(parse_bench_json("{\"no_bench_key\": 1}", &run, &error));
  EXPECT_FALSE(error.empty());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

TEST(ReadBenchDir, ReadsEveryBenchFileByName) {
  const std::string dir = temp_dir("read_bench_dir");
  write_file(dir + "/BENCH_a.json", R"({"bench": "alpha", "v": 7})");
  write_file(dir + "/BENCH_b.json", R"({"bench": "beta", "ok": true})");
  // Not a BENCH_ file: ignored.
  write_file(dir + "/other.json", R"({"bench": "other", "v": 1})");
  BenchRuns runs;
  std::string error;
  ASSERT_TRUE(read_bench_dir(dir, &runs, &error)) << error;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_DOUBLE_EQ(*runs.at("alpha").metric("v"), 7.0);
  EXPECT_TRUE(runs.at("beta").flag("ok"));
}

TEST(ReadBenchDir, NamesTheFileThatDoesNotParse) {
  const std::string dir = temp_dir("read_bench_dir_bad");
  write_file(dir + "/BENCH_a.json", R"({"bench": "alpha", "v": 7})");
  // A google-benchmark report has no "bench" key.
  write_file(dir + "/BENCH_gb.json",
             R"({"benchmarks": [{"name": "BM_A", "real_time": 5}]})");
  BenchRuns runs;
  std::string error;
  EXPECT_FALSE(read_bench_dir(dir, &runs, &error));
  EXPECT_EQ(error, "BENCH_gb.json: flat report without a \"bench\" key");
}

}  // namespace
}  // namespace hicsync::perf
