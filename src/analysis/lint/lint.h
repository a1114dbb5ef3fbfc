// hic-lint: pass-based static synchronization-hazard analysis.
//
// The paper's central promise (§1) is that inter-thread memory dependencies
// are explicit, so hazards "are identified statically". This subsystem makes
// that checkable as a first-class compiler stage: a registry of lint passes
// runs over the checked program (CFGs, variable accesses, the thread
// dependence graph, and — late — the memory map and port plans) and reports
// findings with stable check IDs through the shared DiagnosticEngine.
//
// Stages:
//  * PostSema    — right after semantic analysis, before behavioural
//                  synthesis: AST/CFG/dependence-level hazards (races,
//                  ordering, dead data, pragma hygiene);
//  * PreGenerate — after memory allocation and port planning, before RTL
//                  generation: port-pressure and capacity findings that
//                  would otherwise surface as generator failures.
//
// Registered checks (see docs/DIAGNOSTICS.md for the full catalogue):
//   race-unsynced-access    consume-before-produce   duplicate-producer-write
//   unreachable-stmt        dead-shared-variable     port-pressure
//   pragma-consumer-order
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/access.h"
#include "analysis/cfg.h"
#include "analysis/depgraph.h"
#include "hic/sema.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "support/diagnostics.h"

namespace hicsync::analysis::lint {

enum class Stage { PostSema, PreGenerate };

[[nodiscard]] const char* to_string(Stage s);

/// Immutable metadata of one registered check.
struct CheckInfo {
  const char* id;                      // stable, e.g. "race-unsynced-access"
  support::Severity default_severity;  // before -W overrides
  Stage stage;
  const char* description;             // one line, for docs and --help
};

/// User-facing lint configuration (mapped from hicc's command line).
struct LintOptions {
  bool enabled = false;
  /// Stop the compiler before RTL generation: analysis and port planning
  /// run (the PreGenerate checks need them), controllers are not built.
  bool only = false;
  /// Check IDs promoted to error severity (-W<check>).
  std::vector<std::string> as_error;
  /// Check IDs disabled entirely (-Wno-<check>).
  std::vector<std::string> disabled;
  /// Treat every warning-severity finding as an error (--Werror).
  bool werror = false;
};

/// Everything a check may inspect. Per-thread CFGs and access lists are
/// built once here and shared by all passes; the thread dependence graph is
/// the compiler's own (built for its deadlock phase, so it must outlive
/// this context); the memory map and port plans are attached by the
/// compiler before the PreGenerate stage runs.
class LintContext {
 public:
  LintContext(const hic::Program& program, const hic::Sema& sema,
              const ThreadDepGraph& depgraph);
  LintContext(const LintContext&) = delete;
  LintContext& operator=(const LintContext&) = delete;

  [[nodiscard]] const hic::Program& program() const { return program_; }
  [[nodiscard]] const hic::Sema& sema() const { return sema_; }
  [[nodiscard]] const ThreadDepGraph& depgraph() const { return depgraph_; }
  [[nodiscard]] const std::vector<Cfg>& cfgs() const { return cfgs_; }
  /// CFG / variable accesses of one thread; nullptr for unknown names.
  [[nodiscard]] const Cfg* cfg(const std::string& thread) const;
  [[nodiscard]] const std::vector<Access>* accesses(
      const std::string& thread) const;

  void attach_memory(const memalloc::MemoryMap* map,
                     const std::vector<memalloc::BramPortPlan>* plans) {
    map_ = map;
    plans_ = plans;
  }
  /// Null until attach_memory (PreGenerate stage only).
  [[nodiscard]] const memalloc::MemoryMap* memory_map() const { return map_; }
  [[nodiscard]] const std::vector<memalloc::BramPortPlan>* port_plans()
      const {
    return plans_;
  }

 private:
  const hic::Program& program_;
  const hic::Sema& sema_;
  std::vector<Cfg> cfgs_;  // one per thread, program order
  std::vector<std::vector<Access>> accesses_;  // parallel to cfgs_
  const ThreadDepGraph& depgraph_;
  const memalloc::MemoryMap* map_ = nullptr;
  const std::vector<memalloc::BramPortPlan>* plans_ = nullptr;
};

/// One lint check. Passes are stateless: findings go through the sink with
/// the location and message; the driver resolves severity and check ID.
class LintPass {
 public:
  using Sink = std::function<void(support::SourceLoc, std::string)>;

  virtual ~LintPass() = default;
  [[nodiscard]] virtual const CheckInfo& info() const = 0;
  virtual void run(const LintContext& ctx, const Sink& sink) const = 0;
};

/// Owns the registered passes. The default instance carries the built-in
/// checks; embedders can construct their own registry and add passes.
class LintRegistry {
 public:
  /// Registry pre-populated with every built-in check.
  [[nodiscard]] static const LintRegistry& builtin();

  LintRegistry() = default;
  void register_pass(std::unique_ptr<LintPass> pass);

  [[nodiscard]] const std::vector<std::unique_ptr<LintPass>>& passes() const {
    return passes_;
  }
  [[nodiscard]] const LintPass* find(std::string_view id) const;
  [[nodiscard]] std::vector<CheckInfo> check_infos() const;

 private:
  std::vector<std::unique_ptr<LintPass>> passes_;
};

/// Runs a registry's passes for one stage, resolving per-check severities
/// from the options and reporting into the diagnostic engine.
class LintDriver {
 public:
  struct Summary {
    int errors = 0;
    int warnings = 0;
    int notes = 0;
    [[nodiscard]] int total() const { return errors + warnings + notes; }
  };

  LintDriver(LintOptions options, support::DiagnosticEngine& diags,
             const LintRegistry& registry = LintRegistry::builtin())
      : options_(std::move(options)), diags_(diags), registry_(registry) {}

  /// Runs every registered pass whose stage matches. Returns the finding
  /// counts of this invocation (at resolved severity).
  Summary run(Stage stage, const LintContext& ctx) const;

  /// Severity a finding of `check` would be reported at; Note/Warning/Error
  /// after -W promotions and --Werror, or nullopt when disabled.
  [[nodiscard]] std::optional<support::Severity> resolved_severity(
      const CheckInfo& check) const;

 private:
  LintOptions options_;
  support::DiagnosticEngine& diags_;
  const LintRegistry& registry_;
};

// --- CFG helpers shared by the built-in checks (exposed for tests) ---

/// Id of the CFG node executing `stmt`, or -1 when the statement does not
/// lower to a node of this CFG.
[[nodiscard]] int stmt_node(const Cfg& cfg, const hic::Stmt* stmt);

/// reachable[n] != 0 iff node n is reachable from `from` via successor
/// edges (from itself is reachable).
[[nodiscard]] std::vector<char> reachable_from(const Cfg& cfg, int from);

/// Shortest successor path from → to, inclusive; empty when unreachable.
[[nodiscard]] std::vector<int> shortest_path(const Cfg& cfg, int from,
                                             int to);

}  // namespace hicsync::analysis::lint
