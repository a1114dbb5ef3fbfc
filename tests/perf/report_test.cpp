// hic-report emitters and the paper-claim constraint table, against
// synthetic bench metrics — including an injected "FF no longer constant"
// regression that must flip the Table-1 constraint to Fail.
#include "perf/report.h"

#include <gtest/gtest.h>

#include "perf/constraints.h"

namespace hicsync::perf {
namespace {

BenchRun table1_run() {
  BenchRun run;
  run.bench = "table1_arbitrated_area";
  run.metrics = {
      {"c2.luts", 130}, {"c2.ffs", 71}, {"c2.slices", 65},
      {"c4.luts", 177}, {"c4.ffs", 71}, {"c4.slices", 89},
      {"c8.luts", 290}, {"c8.ffs", 71}, {"c8.slices", 145},
      {"paper_baseline_ff", 66}, {"shape_ok", 1},
  };
  return run;
}

BenchRun table2_run() {
  BenchRun run;
  run.bench = "table2_eventdriven_area";
  run.metrics = {
      {"c2.luts", 67},  {"c2.ffs", 56}, {"c2.slices", 34},
      {"c4.luts", 85},  {"c4.ffs", 56}, {"c4.slices", 43},
      {"c8.luts", 134}, {"c8.ffs", 56}, {"c8.slices", 67},
      {"leaner_than_arbitrated", 1},
  };
  return run;
}

BenchRun fmax_run() {
  BenchRun run;
  run.bench = "timing_fmax";
  run.metrics = {
      {"c2.arbitrated_fmax_mhz", 102.5},  {"c2.paper_arbitrated_mhz", 158},
      {"c4.arbitrated_fmax_mhz", 81.25},  {"c4.paper_arbitrated_mhz", 130},
      {"c8.arbitrated_fmax_mhz", 59.3},   {"c8.paper_arbitrated_mhz", 125},
      {"c2.eventdriven_fmax_mhz", 171.2}, {"c2.paper_eventdriven_mhz", 177},
      {"c4.eventdriven_fmax_mhz", 140.0}, {"c4.paper_eventdriven_mhz", 136},
      {"c8.eventdriven_fmax_mhz", 120.9}, {"c8.paper_eventdriven_mhz", 129},
      {"fmax_decreasing_with_consumers", 1},
      {"eventdriven_faster_everywhere", 1},
  };
  return run;
}

BenchRuns synthetic_runs() {
  BenchRuns runs;
  for (const BenchRun& run : {table1_run(), table2_run(), fmax_run()}) {
    runs.emplace(run.bench, run);
  }
  return runs;
}

TEST(EmitExperimentsMd, RendersTable1RowsByteExact) {
  const std::string md = emit_experiments_md(synthetic_runs());
  EXPECT_NE(md.find("| P/C | LUT (measured) | FF (measured) | Slices "
                    "(measured) | paper constraint |"),
            std::string::npos);
  EXPECT_NE(md.find("| 1/2 | 130 | 71 | 65 | FF constant at 66; LUT grows |"),
            std::string::npos);
  EXPECT_NE(md.find("| 1/4 | 177 | 71 | 89 | ″ |"), std::string::npos);
  EXPECT_NE(md.find("| 1/8 | 290 | 71 | 145 | ″ |"), std::string::npos);
}

TEST(EmitExperimentsMd, RendersTable2AndFmaxRows) {
  const std::string md = emit_experiments_md(synthetic_runs());
  EXPECT_NE(md.find("| 1/2 | 67 | 56 | 34 |"), std::string::npos);
  EXPECT_NE(md.find("| 1/8 | 134 | 56 | 67 |"), std::string::npos);
  // The arbitrated 8-consumer paper value carries the "~" lower-bound
  // marker; measured Fmax renders with one decimal.
  EXPECT_NE(md.find("| arbitrated | 8 | ~125 | 59.3 |"), std::string::npos);
  EXPECT_NE(md.find("| arbitrated | 2 | 158 | 102.5 |"), std::string::npos);
  EXPECT_NE(md.find("| event-driven | 4 | 136 | 140.0 |"), std::string::npos);
}

TEST(EmitExperimentsMd, MissingBenchDegradesToPlaceholder) {
  const std::string md = emit_experiments_md(BenchRuns());
  EXPECT_NE(md.find("no BENCH_table1_arbitrated_area.json"),
            std::string::npos);
  // A placeholder document has no table rows, so drift against any
  // committed file is vacuously empty.
  EXPECT_TRUE(check_drift("anything", md).empty());
}

TEST(CheckDrift, DetectsMissingAndChangedRows) {
  const std::string generated = emit_experiments_md(synthetic_runs());
  // The generated document agrees with itself.
  EXPECT_TRUE(check_drift(generated, generated).empty());
  // A committed doc with one stale value: exactly the changed rows are
  // reported missing.
  std::string committed = generated;
  const std::string row = "| 1/4 | 177 | 71 | 89 | ″ |";
  committed.replace(committed.find(row), row.size(),
                    "| 1/4 | 999 | 71 | 89 | ″ |");
  std::vector<std::string> missing = check_drift(committed, generated);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], row);
}

TEST(Constraints, AllPassOnHealthySyntheticMetrics) {
  std::vector<ConstraintResult> results = check_constraints(synthetic_runs());
  EXPECT_EQ(results.size(), 16u);  // the seven paper benches' claims
  for (const ConstraintResult& r : results) {
    if (r.constraint.bench == "table1_arbitrated_area" ||
        r.constraint.bench == "table2_eventdriven_area" ||
        r.constraint.bench == "timing_fmax") {
      EXPECT_EQ(r.status, ConstraintStatus::Pass)
          << r.constraint.id << ": " << r.detail;
    } else {
      // Benches we didn't synthesize degrade to MissingData, never Fail.
      EXPECT_EQ(r.status, ConstraintStatus::MissingData) << r.constraint.id;
    }
  }
}

TEST(Constraints, InjectedFfRegressionFailsTable1Constancy) {
  BenchRuns runs = synthetic_runs();
  runs["table1_arbitrated_area"].metrics["c8.ffs"] = 90;  // FF grew
  std::vector<ConstraintResult> results = check_constraints(runs);
  bool saw = false;
  for (const ConstraintResult& r : results) {
    if (r.constraint.id == "table1.ff_constant") {
      saw = true;
      EXPECT_EQ(r.status, ConstraintStatus::Fail);
      EXPECT_NE(r.detail.find("c8.ffs=90"), std::string::npos) << r.detail;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(Constraints, FmaxLadderShapeViolationFails) {
  BenchRuns runs = synthetic_runs();
  // Make the event-driven ladder non-monotonic.
  runs["timing_fmax"].metrics["c4.eventdriven_fmax_mhz"] = 200.0;
  std::vector<ConstraintResult> results = check_constraints(runs);
  for (const ConstraintResult& r : results) {
    if (r.constraint.id == "fmax.ev_decreasing") {
      EXPECT_EQ(r.status, ConstraintStatus::Fail);
    }
    if (r.constraint.id == "fmax.ev_matches_paper") {
      // 200 vs the paper's 136 is far outside the 10% tolerance too.
      EXPECT_EQ(r.status, ConstraintStatus::Fail);
    }
  }
}

// The injected FF regression shows up as a FAIL row.
TEST(EmitDashboardMd, ListsConstraintsAndRegressions) {
  BenchRuns runs = synthetic_runs();
  runs["table1_arbitrated_area"].metrics["c8.ffs"] = 90;
  const std::string md = emit_dashboard_md(check_constraints(runs));
  EXPECT_NE(md.find("| table1.ff_constant | table1_arbitrated_area | FAIL | "
                    "c2.ffs=71, c4.ffs=71, c8.ffs=90 |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("| table2.ff_constant | table2_eventdriven_area | pass |"),
            std::string::npos);
  EXPECT_NE(md.find("| baseline.all_ok | baseline_comparison | missing |"),
            std::string::npos);
}

}  // namespace
}  // namespace hicsync::perf
