#include "perf/history.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace hicsync::perf {
namespace {

std::string temp_root(const std::string& leaf) {
  const std::string root =
      (std::filesystem::path(::testing::TempDir()) / leaf).string();
  std::filesystem::remove_all(root);
  return root;
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

TEST(HistoryStore, AppendLoadRoundTrip) {
  HistoryStore store(temp_root("hist_roundtrip"));
  BenchRun run;
  run.bench = "demo";
  run.run_id = "r1";
  run.timestamp = "2026-08-06T12:00:00Z";
  run.metrics["x"] = 1.5;
  run.labels["host"] = "ci";
  ASSERT_TRUE(store.append(run));
  run.run_id = "r2";
  run.metrics["x"] = 2.5;
  ASSERT_TRUE(store.append(run));

  std::vector<BenchRun> loaded = store.load("demo");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].run_id, "r1");
  EXPECT_DOUBLE_EQ(*loaded[0].metric("x"), 1.5);
  EXPECT_EQ(loaded[1].run_id, "r2");
  EXPECT_DOUBLE_EQ(*loaded[1].metric("x"), 2.5);
  EXPECT_EQ(loaded[0].labels.at("host"), "ci");
  EXPECT_EQ(loaded[0].schema, kHistorySchemaVersion);
  EXPECT_EQ(store.benches(), std::vector<std::string>{"demo"});
}

TEST(HistoryStore, SkipsCorruptLines) {
  const std::string root = temp_root("hist_corrupt");
  HistoryStore store(root);
  BenchRun run;
  run.bench = "demo";
  run.metrics["x"] = 1.0;
  ASSERT_TRUE(store.append(run));
  {
    std::ofstream out(root + "/demo.jsonl", std::ios::app);
    out << "{truncated garbage\n";
    // A schema no int holds (casting it would be undefined).
    out << R"({"schema": 1e300, "bench": "demo", "metrics": {}})" << "\n";
  }
  ASSERT_TRUE(store.append(run));
  EXPECT_EQ(store.load("demo").size(), 2u);
}

TEST(HistoryStore, IngestDirectoryBothFormats) {
  const std::string root = temp_root("hist_ingest");
  const std::string bench_dir = temp_root("hist_ingest_benches");
  std::filesystem::create_directories(bench_dir);
  {
    std::ofstream out(bench_dir + "/BENCH_flat.json");
    out << R"({"bench": "flat", "v": 7})";
  }
  {
    // A google-benchmark report: not ingested, and the error names it.
    std::ofstream out(bench_dir + "/BENCH_gb.json");
    out << R"({"benchmarks": [{"name": "BM_A", "run_type": "iteration",
                 "real_time": 5, "time_unit": "ns", "iterations": 10}]})";
  }
  {
    // Not a BENCH_ file: must be ignored.
    std::ofstream out(bench_dir + "/other.json");
    out << R"({"bench": "other", "v": 1})";
  }
  HistoryStore store(root);
  std::string error;
  EXPECT_EQ(store.ingest_directory(bench_dir, "ci-42", "2026-08-06", &error),
            -1);
  EXPECT_EQ(error, "BENCH_gb.json: flat report without a \"bench\" key");
  // Files go in name order, so the flat report before it was recorded.
  std::vector<BenchRun> flat = store.load("flat");
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].run_id, "ci-42");
  EXPECT_EQ(flat[0].timestamp, "2026-08-06");
  EXPECT_EQ(store.benches(), std::vector<std::string>{"flat"});
}

TEST(HistoryStore, JsonlIsOneLinePerRun) {
  BenchRun run;
  run.bench = "demo";
  run.metrics["a"] = 1.0;
  const std::string line = HistoryStore::to_jsonl(run);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  BenchRun back;
  ASSERT_TRUE(HistoryStore::from_jsonl(line, &back));
  EXPECT_EQ(back.bench, "demo");
  EXPECT_DOUBLE_EQ(*back.metric("a"), 1.0);
}

}  // namespace
}  // namespace hicsync::perf
