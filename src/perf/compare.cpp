#include "perf/compare.h"

#include <algorithm>
#include <cmath>

namespace hicsync::perf {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Stable: return "stable";
    case Verdict::Improvement: return "improvement";
    case Verdict::Regression: return "REGRESSION";
    case Verdict::MissingBaseline: return "missing-baseline";
    case Verdict::SchemaSkew: return "schema-skew";
  }
  return "?";
}

Direction default_direction(const std::string& key) {
  static const char* kHigherMarkers[] = {"fmax",       "_ok",  "ok_",
                                         "pass",       "util",
                                         "handoff",    "in_paper_band",
                                         "monotonic",  "varies",
                                         "decreasing", "faster",
                                         "throughput", "scaling"};
  for (const char* marker : kHigherMarkers) {
    if (key.find(marker) != std::string::npos) {
      return Direction::HigherIsBetter;
    }
  }
  return Direction::LowerIsBetter;
}

double CompareOptions::threshold_for(const std::string& key) const {
  auto it = threshold_pct.find(key);
  return it == threshold_pct.end() ? default_threshold_pct : it->second;
}

Direction CompareOptions::direction_for(const std::string& key) const {
  auto it = direction.find(key);
  return it == direction.end() ? default_direction(key) : it->second;
}

std::vector<const MetricDelta*> CompareResult::regressions() const {
  std::vector<const MetricDelta*> out;
  for (const MetricDelta& d : deltas) {
    if (d.verdict == Verdict::Regression) out.push_back(&d);
  }
  return out;
}

namespace {

/// Rank verdicts by severity for the overall roll-up.
int severity(Verdict v) {
  switch (v) {
    case Verdict::Stable: return 0;
    case Verdict::Improvement: return 1;
    case Verdict::MissingBaseline: return 2;
    case Verdict::SchemaSkew: return 3;
    case Verdict::Regression: return 4;
  }
  return 0;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

CompareResult compare_runs(const std::vector<BenchRun>& history,
                           const CompareOptions& options) {
  CompareResult result;
  if (history.size() < 2) {
    result.overall = Verdict::MissingBaseline;
    return result;
  }
  const BenchRun& latest = history.back();
  for (const BenchRun& run : history) {
    if (run.schema != latest.schema) {
      result.overall = Verdict::SchemaSkew;
      return result;
    }
  }
  if (latest.schema != kHistorySchemaVersion) {
    result.overall = Verdict::SchemaSkew;
    return result;
  }

  result.overall = Verdict::Stable;
  for (const auto& [key, latest_value] : latest.metrics) {
    std::vector<double> baseline;
    baseline.reserve(history.size() - 1);
    for (std::size_t i = 0; i + 1 < history.size(); ++i) {
      if (const double* v = history[i].metric(key)) baseline.push_back(*v);
    }
    if (baseline.empty()) continue;  // new metric: no baseline yet

    MetricDelta delta;
    delta.key = key;
    delta.latest = latest_value;
    delta.baseline_median = median_of(baseline);
    std::vector<double> abs_dev;
    abs_dev.reserve(baseline.size());
    for (double v : baseline) {
      abs_dev.push_back(std::fabs(v - delta.baseline_median));
    }
    delta.baseline_mad = median_of(std::move(abs_dev));

    const double diff = latest_value - delta.baseline_median;
    delta.delta_pct = delta.baseline_median == 0.0
                          ? (diff == 0.0 ? 0.0 : 100.0)
                          : 100.0 * diff / std::fabs(delta.baseline_median);

    // Band: at least threshold_pct of the median, widened to the robust
    // noise estimate when the baseline itself is jittery.
    const double pct_band = options.threshold_for(key) / 100.0 *
                            std::fabs(delta.baseline_median);
    const double mad_band = options.mad_sigmas * 1.4826 * delta.baseline_mad;
    const double band = std::max(pct_band, mad_band);

    if (std::fabs(diff) <= band) {
      delta.verdict = Verdict::Stable;
    } else {
      const bool worse = options.direction_for(key) == Direction::LowerIsBetter
                             ? diff > 0.0
                             : diff < 0.0;
      delta.verdict = worse ? Verdict::Regression : Verdict::Improvement;
    }
    if (severity(delta.verdict) > severity(result.overall)) {
      result.overall = delta.verdict;
    }
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

}  // namespace hicsync::perf
