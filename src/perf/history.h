// hic-perf bench-history store: durable, append-only trajectory of every
// benchmark run.
//
// Each bench binary drops a `BENCH_<name>.json` in its working directory
// in the flat JsonBenchReport format (one object, scalar values, a "bench"
// key naming it). HistoryStore normalizes it into a BenchRun (flat
// string→double metric map) and appends one JSON line per run to
// `<root>/<bench>.jsonl`, so the bench trajectory survives the run that
// produced it and can be diffed (perf::compare_runs) and rendered
// (hic-report) later.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hicsync::perf {

/// Bumped when the normalized record shape changes; compare_runs refuses
/// to diff across versions (Verdict::SchemaSkew).
inline constexpr int kHistorySchemaVersion = 1;

/// One normalized benchmark run. Boolean report values are stored as
/// 0.0/1.0 metrics (so "shape_ok no longer true" is an ordinary
/// regression); string values become labels.
struct BenchRun {
  int schema = kHistorySchemaVersion;
  std::string bench;       // "table1_arbitrated_area", "compile", ...
  std::string run_id;      // caller-chosen (CI build id, "local", ...)
  std::string timestamp;   // caller-chosen ISO-8601; not interpreted
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> labels;

  [[nodiscard]] const double* metric(std::string_view key) const;
  /// Convenience for 0/1-coded booleans.
  [[nodiscard]] bool flag(std::string_view key) const;
};

/// Parses the contents of a `BENCH_<name>.json` file into `out` (bench
/// name, metrics, labels; run_id/timestamp left empty). A report without
/// a string "bench" key is rejected.
[[nodiscard]] bool parse_bench_json(std::string_view json_text, BenchRun* out,
                                    std::string* error = nullptr);

class HistoryStore {
 public:
  /// `root` is the directory holding one `<bench>.jsonl` per bench
  /// (canonically `bench/history/`). Created on first append.
  explicit HistoryStore(std::string root) : root_(std::move(root)) {}

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Appends one run as a single JSON line. Creates the root directory
  /// and the per-bench file as needed.
  [[nodiscard]] bool append(const BenchRun& run, std::string* error = nullptr);

  /// Loads every recorded run of one bench, oldest first. Unparseable
  /// lines are skipped (a truncated tail must not poison the history).
  [[nodiscard]] std::vector<BenchRun> load(const std::string& bench,
                                           std::string* error = nullptr) const;

  /// Benches with recorded history, sorted by name.
  [[nodiscard]] std::vector<std::string> benches() const;

  /// Ingests every `BENCH_*.json` under `dir` (non-recursive), stamping
  /// `run_id`/`timestamp` onto each appended run. Returns the number of
  /// files ingested, or -1 on error.
  int ingest_directory(const std::string& dir, const std::string& run_id,
                       const std::string& timestamp,
                       std::string* error = nullptr);

  /// Serializes one run to its JSONL line (no trailing newline); exposed
  /// for tests.
  [[nodiscard]] static std::string to_jsonl(const BenchRun& run);
  [[nodiscard]] static bool from_jsonl(std::string_view line, BenchRun* out,
                                       std::string* error = nullptr);

 private:
  std::string root_;
};

}  // namespace hicsync::perf
