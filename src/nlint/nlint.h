// hic-nlint: netlist-level structural & synchronization static analyzer.
//
// hic-lint checks .hic source and hic-bound/hic-verify check the abstract
// synchronization model; this subsystem closes the remaining gap and checks
// the *generated* RTL controllers themselves. A registry of netlist checks
// (mirroring hic-lint's pass-registry design) runs over each controller
// rtl::Module and reports findings with stable `nlint-*` check IDs through
// the shared DiagnosticEngine:
//
//   nlint-comb-loop               combinational loop (Tarjan SCC witness)
//   nlint-undriven-net            net read but driven by nothing
//   nlint-multiple-drivers        conflicting drivers of one net
//   nlint-unread-net              driven net that nothing reads
//   nlint-dead-cone               logic only reachable through dead selects
//   nlint-width-mismatch          expression-tree width inconsistency
//   nlint-onehot-violation        refuted mutual-exclusion claim + witness
//   nlint-onehot-unproved         claim the bounded prover could not settle
//   nlint-uninitialized-feedback  FF on a feedback path without reset
//   nlint-census-drift            netlist vs BramReport/DepListHints drift
//
// The one-hot checks discharge the structural claims the rtl builders
// record (arbiter single-grant, decoder exclusivity, every build_onehot_mux
// select set) with a bounded bit-level abstract interpretation — see
// nlint/onehot.h. Wired into core::Compiler as a profiled opt-in phase,
// which the `hic-nlint` tool enables (exit code 7).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nlint/onehot.h"
#include "rtl/netlist.h"
#include "support/diagnostics.h"

namespace hicsync::nlint {

/// Immutable metadata of one registered netlist check.
struct CheckInfo {
  const char* id;
  support::Severity default_severity;
  const char* description;  // one line, for docs and --list-checks
};

/// Every built-in check, in reporting order.
[[nodiscard]] const std::vector<CheckInfo>& check_registry();
[[nodiscard]] const CheckInfo* find_check(std::string_view id);

/// Generator-side expectations for the census check, assembled from the
/// compiler's BramReport (area model, post-pruning dependency counts,
/// pseudo-port plan). Negative fields are not checked.
struct Expectations {
  enum class Org { None, Arbitrated, EventDriven };
  Org org = Org::None;
  int ffs = -1;           // flip-flop bits per the area model
  int dependencies = -1;  // dependency-list entries after DepListHint pruning
  int slots = -1;         // event slots (event-driven organization)
  int consumers = -1;     // consumer pseudo-ports
  int producers = -1;     // producer pseudo-ports
};

struct NlintOptions {
  bool enabled = false;
  /// Check IDs to run; empty runs every registered check.
  std::vector<std::string> checks;
  /// Collect per-claim proof narration into NlintResult::explain.
  bool explain = false;
  OneHotOptions onehot;
};

struct Finding {
  std::string check_id;
  support::Severity severity = support::Severity::Error;
  std::string module;
  std::string message;  // includes the witness where the check has one
};

struct ModuleSummary {
  std::string module;
  int nets = 0;
  int assigns = 0;
  int claims_total = 0;
  int claims_proved = 0;
  int claims_refuted = 0;
  int claims_inconclusive = 0;
  std::uint64_t facts_derived = 0;
};

struct NlintResult {
  std::vector<Finding> findings;
  std::vector<ModuleSummary> modules;
  std::vector<std::string> explain;  // per-claim narration (--explain)

  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
  [[nodiscard]] int notes() const;
  [[nodiscard]] int claims_inconclusive() const;
  [[nodiscard]] bool clean() const { return errors() == 0; }

  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::string json() const;
};

/// Runs the enabled checks over one module. `exp` enables the census check.
[[nodiscard]] NlintResult run_module(const rtl::Module& module,
                                     const NlintOptions& options,
                                     const Expectations* exp = nullptr);

/// Runs over every named module of the design (all, when `names` is empty),
/// with per-module expectations where provided.
[[nodiscard]] NlintResult run_design(
    const rtl::Design& design, const NlintOptions& options,
    const std::vector<std::string>& names = {},
    const std::map<std::string, Expectations>& expectations = {});

void merge(NlintResult& into, NlintResult&& from);

/// Reports every finding into the engine under its check ID; returns the
/// number reported at error severity.
std::size_t report_findings(const NlintResult& result,
                            support::DiagnosticEngine& diags);

}  // namespace hicsync::nlint
