// hic-report — paper-claims checking and the measured-vs-constraint
// dashboard over the BENCH_*.json files of one bench run.
//
//   hic-report [options]
//
//   --bench-dir <dir>       where the BENCH_*.json files live (default .)
//   --emit=dashboard-md     measured-vs-constraint dashboard (default)
//   --emit=experiments-md   regenerate EXPERIMENTS.md's numeric tables
//   --out <path>            write the emitted report there (default stdout)
//   --check                 evaluate the paper-claim constraints; fail on a
//                           violation or on a constraint without data
//   --check-drift <file>    verify every regenerated table row appears
//                           verbatim in <file> (EXPERIMENTS.md)
//
// Exit status:
//   0  success / all checks green
//   1  --check found a constraint violation
//   2  usage error, unreadable --bench-dir or BENCH file, or two BENCH
//      files naming the same bench
//   3  --check has a constraint without data (missing bench or metric),
//      or --check-drift is missing one of the three table benches
//      (table1_arbitrated_area, table2_eventdriven_area, timing_fmax)
//   5  --check-drift found committed tables diverging from regenerated

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "perf/constraints.h"
#include "perf/history.h"
#include "perf/report.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --bench-dir <dir>\n"
    "  --emit=dashboard-md|experiments-md [--out <path>]\n"
    "  --check | --check-drift <file>\n"
    "exit codes: 0 ok, 1 check failed, 2 usage or unreadable BENCH file, 3 missing data, 5 drift\n";

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir = ".";
  std::string emit = "dashboard-md";
  std::string out_path;
  std::string drift_file;
  bool check = false;
  bool emit_explicit = false;

  cli::Cursor cli(argc, argv, 1,
                  support::format("usage: %s [options]\n%s", argv[0],
                                  kUsageBody),
                  2);
  while (cli.next()) {
    if (cli.value("--bench-dir", &bench_dir)) {
    } else if (cli.value("--emit", &emit)) {
      emit_explicit = true;
      if (emit != "dashboard-md" && emit != "experiments-md") {
        return cli.error("unknown --emit format '" + emit + "'");
      }
    } else if (cli.value("--out", &out_path)) {
    } else if (cli.flag("--check")) {
      check = true;
    } else if (cli.value("--check-drift", &drift_file)) {
    } else if (cli.help()) {
      cli.usage();
      return 0;
    } else {
      return cli.unknown_option();
    }
  }

  perf::BenchRuns runs;
  std::string error;
  if (!perf::read_bench_dir(bench_dir, &runs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::vector<perf::ConstraintResult> constraints =
      perf::check_constraints(runs);

  if (!drift_file.empty()) {
    const std::optional<cli::Source> committed = cli::read_source(drift_file);
    if (!committed) return 2;
    // A missing table bench would drop its rows from the regenerated
    // tables and let the rest "match": fail closed, as --check does.
    for (const char* bench :
         {"table1_arbitrated_area", "table2_eventdriven_area",
          "timing_fmax"}) {
      if (runs.count(bench) == 0) {
        std::fprintf(stderr, "--check-drift: no bench '%s' in %s\n", bench,
                     bench_dir.c_str());
        return 3;
      }
    }
    const std::vector<std::string> missing = perf::check_drift(
        committed->text, perf::emit_experiments_md(runs));
    if (!missing.empty()) {
      std::fprintf(stderr,
                   "--check-drift: %zu regenerated table row(s) missing "
                   "from %s:\n",
                   missing.size(), drift_file.c_str());
      for (const std::string& line : missing) {
        std::fprintf(stderr, "  %s\n", line.c_str());
      }
      return 5;
    }
    std::fprintf(stderr, "--check-drift: %s matches the regenerated "
                         "tables\n",
                 drift_file.c_str());
  }

  int exit_code = 0;
  if (check) {
    int failed = 0;
    int missing = 0;
    for (const perf::ConstraintResult& r : constraints) {
      if (r.status == perf::ConstraintStatus::Fail) {
        std::fprintf(stderr, "CONSTRAINT FAIL %s (%s): %s\n",
                     r.constraint.id.c_str(),
                     r.constraint.description.c_str(), r.detail.c_str());
        ++failed;
      } else if (r.status == perf::ConstraintStatus::MissingData) {
        std::fprintf(stderr, "constraint %s: %s\n", r.constraint.id.c_str(),
                     r.detail.c_str());
        ++missing;
      }
    }
    std::fprintf(stderr,
                 "--check: %zu constraints (%d failed, %d missing data)\n",
                 constraints.size(), failed, missing);
    exit_code = failed > 0 ? 1 : missing > 0 ? 3 : 0;
  }

  // Emit the requested report, unless the invocation was check-only with
  // the default emit target and no --out.
  const bool check_only = (check || !drift_file.empty()) && !emit_explicit &&
                          out_path.empty();
  if (!check_only) {
    const std::string body = emit == "experiments-md"
                                 ? perf::emit_experiments_md(runs)
                                 : perf::emit_dashboard_md(constraints);
    if (!cli::write_file(out_path, body)) return 2;
  }
  return exit_code;
}
