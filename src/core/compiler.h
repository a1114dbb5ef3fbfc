// Top-level compiler driver: hic source → analysis → synthesis → memory
// allocation → memory-organization generation → Verilog + area/timing
// reports, in one call. This is the library's primary public entry point;
// §3's design flow end to end, with the §4 design-space choice (arbitrated
// vs event-driven, per constraints) exposed as an option.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint/lint.h"
#include "bound/bound.h"
#include "fpga/techmap.h"
#include "fpga/timing.h"
#include "hic/sema.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "memorg/controller.h"
#include "nlint/nlint.h"
#include "perf/profile.h"
#include "rtl/netlist.h"
#include "sim/system.h"
#include "support/diagnostics.h"
#include "synth/scheduler.h"

namespace hicsync::core {

struct CompileOptions {
  sim::OrgKind organization = sim::OrgKind::Arbitrated;
  synth::SchedulePolicy schedule;           // default: one statement/state
  bool use_cam = true;                      // arbitrated dependency list
  double target_clock_mhz = 125.0;          // the paper's target
  /// Infer producer/consumer relationships for cross-thread reads that
  /// carry no pragmas (the use-def alternative §2 mentions).
  bool infer_dependencies = false;
  /// Static synchronization-hazard analysis (hic-lint). When enabled, the
  /// PostSema checks run between semantic analysis and synthesis and the
  /// PreGenerate checks run after port planning, before RTL generation;
  /// `lint.only` stops the flow there (no controllers are generated).
  analysis::lint::LintOptions lint;
  /// hic-bound: abstract-interpretation dataflow bounds (occupancy vs CAM
  /// capacity, worst-case blocking, dead ports; docs/ANALYSIS.md). Runs
  /// after port planning — before the lint-only early exit, so
  /// `--bound --lint-only` composes — and its shrinking sizing hints feed
  /// the memory-organization generators.
  /// Findings surface as bound-* diagnostics (hicc exits 6) without
  /// flipping ok().
  bound::BoundOptions bound;
  /// hic-nlint: netlist-level structural checks over the generated
  /// controllers (comb loops, driver conflicts, width consistency, one-hot
  /// mutual-exclusion proofs for every recorded claim, reset coverage, and
  /// the census cross-check against each BramReport; docs/ANALYSIS.md).
  /// Runs after generation as a profiled phase, so not under `lint.only`;
  /// findings surface as nlint-* diagnostics (hic-nlint exits 7) without
  /// flipping ok().
  nlint::NlintOptions nlint;
  /// Name stamped onto diagnostics (and json output); typically the path
  /// the driver read the source from.
  std::string source_name;
  /// hic-perf pass profiler (not owned; must outlive compile()). When
  /// set, every pass is bracketed with a ScopedPhase and AST/netlist node
  /// counts plus pass wall times accumulate into it; when null — the
  /// default — instrumentation costs one branch per pass
  /// (`hicc --profile`, see docs/OBSERVABILITY.md).
  perf::PassTimer* profiler = nullptr;
};

/// Area/timing report for one generated memory-organization controller.
struct BramReport {
  int bram_id = -1;
  std::string module_name;
  int consumers = 0;
  int producers = 0;
  int dependencies = 0;
  /// Event slots the controller sequences (event-driven organization; 0
  /// for arbitrated). Cross-checked against the netlist by hic-nlint.
  int slots = 0;
  /// Dead entries / pseudo-ports removed by a hic-bound sizing hint
  /// before generation (0 unless the bound phase pruned something).
  int pruned_deps = 0;
  int pruned_ports = 0;
  fpga::MapResult area;
  fpga::TimingResult timing;
};

/// Owns everything produced by a compilation. Not movable: later stages
/// hold references into earlier ones.
class CompileResult {
 public:
  CompileResult() = default;
  CompileResult(const CompileResult&) = delete;
  CompileResult& operator=(const CompileResult&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const support::DiagnosticEngine& diags() const {
    return diags_;
  }
  [[nodiscard]] const hic::Program& program() const { return program_; }
  [[nodiscard]] const hic::Sema& sema() const { return *sema_; }
  [[nodiscard]] const std::vector<synth::ThreadFsm>& fsms() const {
    return fsms_;
  }
  [[nodiscard]] const synth::ThreadFsm* fsm(const std::string& thread) const;
  [[nodiscard]] const memalloc::MemoryMap& memory_map() const { return map_; }
  [[nodiscard]] const std::vector<memalloc::BramPortPlan>& port_plans()
      const {
    return plans_;
  }
  [[nodiscard]] const rtl::Design& design() const { return design_; }
  /// One generated controller per BRAM (modules live in design()), with
  /// the possibly pruned BRAM, port plan and dependency list each was
  /// built from. Simulators and the testbench generator drive these.
  [[nodiscard]] const std::vector<memorg::GeneratedController>& controllers()
      const {
    return controllers_;
  }
  [[nodiscard]] const std::vector<BramReport>& bram_reports() const {
    return bram_reports_;
  }
  [[nodiscard]] const std::vector<std::string>& deadlock_warnings() const {
    return deadlock_warnings_;
  }
  /// Lint findings reported at (resolved) error/warning severity. Lint
  /// errors do not flip ok(): the design still generates, but drivers
  /// should fail CI on them (hicc exits 4).
  [[nodiscard]] std::size_t lint_error_count() const { return lint_errors_; }
  [[nodiscard]] std::size_t lint_warning_count() const {
    return lint_warnings_;
  }
  /// hic-bound results (empty unless options.bound.enabled; one entry for
  /// the compiled organization). Like lint, exceeded bounds do not flip
  /// ok(); drivers should fail on them (hicc exits 6).
  [[nodiscard]] const std::vector<bound::BoundResult>& bound_results() const {
    return bound_results_;
  }
  [[nodiscard]] std::size_t bound_error_count() const {
    return bound_errors_;
  }
  /// hic-nlint result (empty unless options.nlint.enabled; covers every
  /// generated controller module). Like the other analyses, netlist
  /// findings do not flip ok(); drivers should fail on them (hic-nlint
  /// exits 7).
  [[nodiscard]] const nlint::NlintResult& nlint_result() const {
    return nlint_result_;
  }
  [[nodiscard]] std::size_t nlint_error_count() const {
    return nlint_errors_;
  }
  [[nodiscard]] const CompileOptions& options() const { return options_; }

  /// Generated RTL of every controller, as Verilog-2001 text.
  [[nodiscard]] std::string verilog() const;

  /// Totals across all generated controllers.
  [[nodiscard]] fpga::MapResult total_overhead() const;
  /// Lowest Fmax across controllers (the system clock bound).
  [[nodiscard]] double min_fmax_mhz() const;
  /// True if every controller meets the target clock.
  [[nodiscard]] bool meets_target() const;

  /// Creates a cycle-accurate system simulator over this compilation's
  /// own FSMs and controllers. The simulator borrows them (and the
  /// program and Sema), so this result must outlive it. A
  /// `sim_options.organization` other than options().organization throws
  /// std::invalid_argument.
  [[nodiscard]] std::unique_ptr<sim::SystemSim> make_simulator(
      sim::SystemOptions sim_options) const;
  [[nodiscard]] std::unique_ptr<sim::SystemSim> make_simulator() const;

  friend class Compiler;

 private:
  bool ok_ = false;
  CompileOptions options_;
  support::DiagnosticEngine diags_;
  hic::Program program_;
  std::unique_ptr<hic::Sema> sema_;
  std::vector<synth::ThreadFsm> fsms_;
  memalloc::MemoryMap map_;
  std::vector<memalloc::BramPortPlan> plans_;
  rtl::Design design_;
  std::vector<memorg::GeneratedController> controllers_;
  std::vector<BramReport> bram_reports_;
  std::vector<std::string> deadlock_warnings_;
  std::size_t lint_errors_ = 0;
  std::size_t lint_warnings_ = 0;
  std::vector<bound::BoundResult> bound_results_;
  std::size_t bound_errors_ = 0;
  nlint::NlintResult nlint_result_;
  std::size_t nlint_errors_ = 0;
};

class Compiler {
 public:
  explicit Compiler(CompileOptions options = {}) : options_(options) {}

  /// Runs the full flow. Returns a result whose ok() reflects front-end
  /// and analysis success; on failure the later stages are left empty and
  /// diags() explains why.
  [[nodiscard]] std::unique_ptr<CompileResult> compile(
      std::string_view source) const;

 private:
  CompileOptions options_;
};

/// Human-readable compilation report (threads, dependencies, memory map,
/// per-controller area and timing against the target clock).
[[nodiscard]] std::string render_report(const CompileResult& result);

}  // namespace hicsync::core
