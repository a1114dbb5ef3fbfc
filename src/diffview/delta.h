// The hic-diff delta reporter: §4-style comparison tables over two run
// bundles (per-port utilization, stall-cause attribution, round-latency
// percentiles, controller occupancy, coverage deltas, area/Fmax model
// rows), rendered as text, markdown (the hic-report dashboard section), or
// JSON.
#pragma once

#include <string>
#include <vector>

#include "diffview/align.h"
#include "diffview/bundle.h"

namespace hicsync::diffview {

/// One row of a comparison table: a metric with its value in each run.
struct DeltaRow {
  std::string name;
  double a = 0.0;
  double b = 0.0;
  bool is_int = false;  // render without decimals

  [[nodiscard]] double delta() const { return b - a; }
  [[nodiscard]] bool differs() const;
};

struct DeltaSection {
  std::string title;
  std::vector<DeltaRow> rows;
};

struct DiffReport {
  Manifest manifest_a;
  Manifest manifest_b;
  AlignResult align;
  std::vector<DeltaSection> sections;
  /// Coverage bins present in exactly one bundle ("group / bin").
  std::vector<std::string> cover_only_a;
  std::vector<std::string> cover_only_b;
  /// Any table row (or coverage-bin presence) differs between the runs.
  bool metric_deltas = false;

  [[nodiscard]] bool trace_diverged() const { return !align.equivalent; }
  /// The hic-diff verdict: 0 = equal, 1 = metric deltas only, 2 = trace
  /// divergence (usage/io failures are the CLI's 3, before a report
  /// exists).
  [[nodiscard]] int exit_code() const {
    if (trace_diverged()) return 2;
    return metric_deltas ? 1 : 0;
  }

  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::string markdown() const;
  [[nodiscard]] std::string json() const;
};

/// Aligns the two bundles' traces and tabulates every metric delta.
[[nodiscard]] DiffReport diff_bundles(const Bundle& a, const Bundle& b,
                                      const AlignOptions& options = {});

}  // namespace hicsync::diffview
