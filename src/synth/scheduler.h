// State scheduling / operation chaining.
//
// The baseline FSM uses one state per statement (every memory access single
// cycle, as the paper assumes). This pass optionally chains consecutive
// dependency-free statements into one state under a memory-port resource
// constraint — one of the "well researched" behavioural-synthesis steps the
// paper's front end applies, and an ablation knob for our benches.
#pragma once

#include <vector>

#include "synth/fsm.h"

namespace hicsync::synth {

struct SchedulePolicy {
  /// Merge consecutive Action states when legal (operation chaining).
  bool chain_states = false;
  /// Max memory accesses (reads+writes of shared/array variables) that one
  /// chained state may perform; a dual-ported BRAM bounds this at 2.
  int max_mem_accesses_per_state = 2;
};

struct ScheduleStats {
  int states_before = 0;
  int states_after = 0;
  int chained_pairs = 0;
};

/// Applies the policy in place. Chaining merges state B into its unique
/// predecessor A when:
///  * both are Action states, A's only successor is B and B's only
///    predecessor is A;
///  * neither state carries a dependency access (producer writes and
///    blocking consumer reads keep their own cycle so guards/events attach
///    to a unique state);
///  * B does not read a register A writes (no intra-cycle RAW through the
///    register file — chaining combinationally would lengthen the critical
///    path past one cycle);
///  * the merged state respects `max_mem_accesses_per_state` for variables
///    that live in memory (arrays and shared variables).
ScheduleStats schedule(ThreadFsm& fsm, const SchedulePolicy& policy);

/// One FSM per thread of `program`, in declaration order: synthesized,
/// then scheduled under `policy`. The compiler and hic-rt's artifact
/// loader both build a design's FSMs through this.
[[nodiscard]] std::vector<ThreadFsm> synthesize_program(
    const hic::Program& program, const hic::Sema& sema,
    const SchedulePolicy& policy);

}  // namespace hicsync::synth
