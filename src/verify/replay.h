// hic-verify: counterexample replay against the cycle-accurate simulator.
//
// A refutation produced by the model checker is a claim about the abstract
// semantics; replay cross-validates it against sim::SystemSim — the
// interpreter of the *generated* controller netlists — so every reported
// bug is demonstrated on the same logic the Verilog backend emits. The
// replayer releases thread first-passes in counterexample-schedule order
// (via SystemSim gates), runs the system to its cycle budget, and then
// checks that it failed to converge with exactly the counterexample's
// blocked set: each blocked thread stuck on the predicted dependency, as
// seen both by the simulator's own diagnostics and by ThreadBlock /
// ThreadUnblock events on the trace bus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "synth/fsm.h"
#include "verify/checker.h"

namespace hicsync::verify {

struct ReplayOptions {
  /// Cycle budget; the simulation must still be stuck when it expires.
  std::uint64_t max_cycles = 20000;
  /// Pass count the simulation must FAIL to reach for the refutation to
  /// stand (a deadlocked system completes no further passes).
  int passes = 3;
};

struct ReplayResult {
  /// True when the simulator reproduced the violation: no convergence,
  /// and every blocked (thread, dependency) pair of the counterexample is
  /// blocked in the simulator and on the trace bus.
  bool reproduced = false;
  std::uint64_t cycles = 0;
  std::vector<std::string> blocked_threads;
  /// Human-readable outcome, including the simulator's stall report.
  std::string report;
};

/// Replays `cex` (a deadlock refutation from run_verify) through
/// sim::SystemSim under `organization`. Inputs are the compile artifacts
/// run_verify consumed plus the compiled thread FSMs; the controllers for
/// `organization` are built from `map`/`plans` by
/// memorg::build_controllers, as the compiler builds them.
[[nodiscard]] ReplayResult replay(
    const hic::Program& program, const hic::Sema& sema,
    const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans,
    const std::vector<synth::ThreadFsm>& fsms, sim::OrgKind organization,
    const CexInfo& cex, const ReplayOptions& options);

}  // namespace hicsync::verify
