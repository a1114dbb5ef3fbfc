// hic-perf bench reports: the metrics of one bench run, read from the
// `BENCH_<name>.json` file the bench binary drops in its working directory.
//
// Each file is in the flat JsonBenchReport format (one object, scalar
// values, a "bench" key naming it). parse_bench_json normalizes it into a
// BenchRun (flat string→double metric map); read_bench_dir reads a whole
// directory of them, which is what hic-report checks and renders.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace hicsync::perf {

/// One normalized benchmark run. Boolean report values are stored as
/// 0.0/1.0 metrics; string values become labels.
struct BenchRun {
  std::string bench;  // "table1_arbitrated_area", "rt", ...
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> labels;

  [[nodiscard]] const double* metric(std::string_view key) const;
  /// Convenience for 0/1-coded booleans.
  [[nodiscard]] bool flag(std::string_view key) const;
};

/// The runs of one bench directory, keyed by bench name.
using BenchRuns = std::map<std::string, BenchRun>;

/// Parses the contents of a `BENCH_<name>.json` file into `out`. A report
/// without a string "bench" key is rejected.
[[nodiscard]] bool parse_bench_json(std::string_view json_text, BenchRun* out,
                                    std::string* error = nullptr);

/// Reads every `BENCH_*.json` directly under `dir` into `out`. Fails on an
/// unreadable directory, on a file that does not parse (the error names
/// it) and on two files naming the same bench (the error names both).
[[nodiscard]] bool read_bench_dir(const std::string& dir, BenchRuns* out,
                                  std::string* error = nullptr);

}  // namespace hicsync::perf
