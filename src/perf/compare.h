// Regression detection over a bench history: the latest run is judged
// against the median of the preceding runs, with a MAD-derived noise band
// so a single flaky sample doesn't widen the gate forever and a single
// quiet baseline doesn't make every 0.1% wiggle a regression.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perf/history.h"

namespace hicsync::perf {

enum class Verdict {
  Stable,           // within the noise/threshold band
  Improvement,     // moved beyond the band in the good direction
  Regression,      // moved beyond the band in the bad direction
  MissingBaseline, // fewer than two runs — nothing to compare against
  SchemaSkew,      // record schema versions differ; refuse to compare
};

[[nodiscard]] const char* to_string(Verdict v);

/// Which way "better" points for a metric.
enum class Direction { LowerIsBetter, HigherIsBetter };

/// Heuristic default: throughput/quality-style keys (fmax, *_ok, pass,
/// utilization) are higher-is-better; everything else —
/// times, areas, overheads, latencies — is lower-is-better.
[[nodiscard]] Direction default_direction(const std::string& key);

struct CompareOptions {
  /// Relative change (vs the baseline median) below which a metric is
  /// Stable regardless of MAD. Keyed overrides win over the default.
  double default_threshold_pct = 5.0;
  std::map<std::string, double> threshold_pct;
  /// Noise band half-width in robust standard deviations (1.4826 × MAD).
  double mad_sigmas = 3.0;
  /// Keyed direction overrides (else default_direction()).
  std::map<std::string, Direction> direction;

  [[nodiscard]] double threshold_for(const std::string& key) const;
  [[nodiscard]] Direction direction_for(const std::string& key) const;
};

/// Per-metric comparison outcome.
struct MetricDelta {
  std::string key;
  double baseline_median = 0.0;
  double baseline_mad = 0.0;
  double latest = 0.0;
  double delta_pct = 0.0;  // signed, relative to |median| (0 when median=0)
  Verdict verdict = Verdict::Stable;
};

struct CompareResult {
  /// Worst per-metric verdict (Regression > SchemaSkew > MissingBaseline >
  /// Improvement > Stable).
  Verdict overall = Verdict::MissingBaseline;
  std::vector<MetricDelta> deltas;  // sorted by key

  [[nodiscard]] std::vector<const MetricDelta*> regressions() const;
};

/// Compares the last run in `history` against the median/MAD of every
/// earlier run. Metrics present only in the baseline or only in the
/// latest run are skipped (bench evolution is not a regression).
[[nodiscard]] CompareResult compare_runs(const std::vector<BenchRun>& history,
                                         const CompareOptions& options = {});

}  // namespace hicsync::perf
