// The paper-prose claims of §3/§4, encoded as machine-checkable
// constraints over the normalized bench metrics (perf::BenchRun).
//
// These are the same shape claims EXPERIMENTS.md reconciles in prose —
// FF count constant while pseudo-ports grow, LUT-only growth, the
// 158/130/125 and 177/136/129 MHz Fmax ladders, the 5–20 % controller
// overhead band — expressed once so `hic-report --check` can gate CI on
// them instead of a human re-reading the tables.
#pragma once

#include <string>
#include <vector>

#include "perf/history.h"

namespace hicsync::perf {

enum class ConstraintKind {
  FlagTrue,           // metrics[keys[0]] != 0
  EqualAcross,        // all keys equal (FF constancy)
  StrictlyIncreasing, // keys in listed order (LUT growth)
  StrictlyDecreasing, // keys in listed order (Fmax vs consumers)
  WithinPctOfRef,     // |keys[i] - ref_keys[i]| <= tolerance_pct% of ref
  AtMostRef,          // keys[0] <= ref_keys[0] (+tolerance_pct% slack)
};

struct Constraint {
  std::string id;           // "table1.ff_constant"
  std::string bench;        // bench whose report holds the metrics
  std::string description;  // the paper sentence being checked
  ConstraintKind kind;
  std::vector<std::string> keys;
  std::vector<std::string> ref_keys;  // WithinPctOfRef / AtMostRef
  double tolerance_pct = 0.0;
};

enum class ConstraintStatus { Pass, Fail, MissingData };

struct ConstraintResult {
  Constraint constraint;
  ConstraintStatus status = ConstraintStatus::MissingData;
  std::string detail;  // measured values / what went wrong
};

/// The built-in claim table covering every `BENCH_<name>.json` producer.
[[nodiscard]] std::vector<Constraint> paper_constraints();

/// Evaluates one constraint against the run of its bench (nullptr →
/// MissingData).
[[nodiscard]] ConstraintResult check_constraint(const Constraint& c,
                                                const BenchRun* run);

/// Evaluates `constraints` against `runs`; results keep table order.
[[nodiscard]] std::vector<ConstraintResult> check_constraints(
    const BenchRuns& runs,
    const std::vector<Constraint>& constraints = paper_constraints());

}  // namespace hicsync::perf
