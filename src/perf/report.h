// hic-report emitters: the measured-vs-paper-constraint dashboard as
// Markdown, and a byte-exact regeneration of EXPERIMENTS.md's numeric
// tables.
#pragma once

#include <string>
#include <vector>

#include "perf/constraints.h"
#include "perf/history.h"

namespace hicsync::perf {

/// Regenerates the numeric tables of EXPERIMENTS.md (Tables 1 and 2 and
/// the §4 Fmax table) from the bench runs. The table rows are
/// byte-identical to the committed document — `check_drift` and the
/// `hic_report.experiments_md_in_sync` ctest depend on that.
[[nodiscard]] std::string emit_experiments_md(const BenchRuns& runs);

/// Compares every `|`-prefixed table row of `generated` (the
/// emit_experiments_md output) against `committed` (the EXPERIMENTS.md
/// text); returns the rows missing from the committed document (empty =
/// no drift).
[[nodiscard]] std::vector<std::string> check_drift(
    const std::string& committed, const std::string& generated);

/// The measured-vs-constraint dashboard as Markdown: one row per
/// constraint verdict.
[[nodiscard]] std::string emit_dashboard_md(
    const std::vector<ConstraintResult>& constraints);

}  // namespace hicsync::perf
