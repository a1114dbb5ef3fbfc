// bench::JsonBenchReport with a non-finite value: the BENCH file stays
// valid JSON (the key is written as null), the bench and key are named on
// stderr, and hic-report --check then reports that one metric as missing
// data instead of rejecting the whole file.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <sys/wait.h>

#include "bench_util.h"
#include "perf/constraints.h"
#include "perf/history.h"

namespace hicsync::bench {
namespace {

/// Table 1's report as the bench writes it, with one LUT count gone bad.
JsonBenchReport table1_with(double c8_luts) {
  JsonBenchReport r("table1_arbitrated_area");
  r.set("c2.luts", 130);
  r.set("c2.ffs", 71);
  r.set("c4.luts", 177);
  r.set("c4.ffs", 71);
  r.set("c8.luts", c8_luts);
  r.set("c8.ffs", 71);
  r.set("shape_ok", true);
  return r;
}

TEST(BenchReport, NonFiniteValueWritesNullAndNamesTheKey) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    ::testing::internal::CaptureStderr();
    const JsonBenchReport r = table1_with(bad);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "bench table1_arbitrated_area: non-finite value for 'c8.luts' "
              "written as null\n");
    const std::string text = r.str();
    EXPECT_NE(text.find("\"c8.luts\": null"), std::string::npos) << text;
    EXPECT_EQ(text.find("inf"), std::string::npos) << text;
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;

    perf::BenchRun run;
    std::string error;
    ASSERT_TRUE(perf::parse_bench_json(text, &run, &error)) << error;
    EXPECT_EQ(run.metric("c8.luts"), nullptr);
    ASSERT_NE(run.metric("c4.luts"), nullptr);
  }
  // A finite value keeps the %.4f format and says nothing.
  ::testing::internal::CaptureStderr();
  const std::string fine = table1_with(290.0).str();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_NE(fine.find("\"c8.luts\": 290.0000"), std::string::npos) << fine;
}

TEST(BenchReport, CheckReportsTheNullKeyAsMissingData) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "bench_report_null";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::testing::internal::CaptureStderr();
  const std::string text =
      table1_with(std::numeric_limits<double>::infinity()).str();
  (void)::testing::internal::GetCapturedStderr();
  std::ofstream(dir / "BENCH_table1_arbitrated_area.json") << text;

  perf::BenchRuns runs;
  std::string error;
  ASSERT_TRUE(perf::read_bench_dir(dir.string(), &runs, &error)) << error;
  for (const perf::ConstraintResult& r : perf::check_constraints(runs)) {
    if (r.constraint.id == "table1.lut_growth") {
      EXPECT_EQ(r.status, perf::ConstraintStatus::MissingData);
      EXPECT_EQ(r.detail, "metric 'c8.luts' absent from the report");
    } else if (r.constraint.id == "table1.ff_constant") {
      EXPECT_EQ(r.status, perf::ConstraintStatus::Pass) << r.detail;
    }
  }

  // The CLI names the key and exits 3 (missing data), not 2 (unreadable).
  const std::string cmd = std::string(HIC_REPORT_BIN) + " --bench-dir '" +
                          dir.string() + "' --check 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 3) << out;
  EXPECT_NE(out.find("constraint table1.lut_growth: metric 'c8.luts' "
                     "absent from the report"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace hicsync::bench
