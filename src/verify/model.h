// hic-verify: abstract program model for explicit-state model checking.
//
// The checker reasons about the compiled program at the level that decides
// synchronization behavior and nothing else: each thread is its CFG
// automaton (analysis/cfg) with every statement either *internal* (moves
// the program counter, touches no shared state) or a *sync op* — the
// guarded consumer read or dependency-completing producer write the §3
// controllers implement. Data values are abstracted away entirely; branch
// nodes transition nondeterministically, so the model over-approximates
// every data-dependent schedule (and every message arrival timing, since
// threads interleave asynchronously).
//
// The memory controller is abstracted per organization:
//  * arbitrated (§3.1): one countdown counter per dependency-list entry.
//    A producer write is enabled when its entry's countdown is zero (the
//    previous round drained) and reloads it with the dependency number; a
//    consumer read is enabled when the countdown is positive and
//    decrements it. This is exactly the dynamic state of the CAM-matched
//    dependency list — pseudo-port arbitration adds bounded delay but no
//    ordering, so it is folded into the fairness assumption
//    (docs/VERIFICATION.md).
//  * event-driven (§3.2): one modulo slot counter per controller. An
//    access is enabled only in its schedule slot and advances the slot —
//    the selection logic "blocks in each slot until the slot's owner
//    raises its request".
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "hic/sema.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "sim/system.h"

namespace hicsync::verify {

/// One synchronization operation performed by a CFG node.
struct SyncOp {
  enum class Kind { Consume, Produce };
  Kind kind = Kind::Consume;
  int dep = -1;        // index into ProgramModel::deps()
  int consumer = -1;   // Consume: index into the dependency's consumers
  int controller = -1; // index into ProgramModel::controllers()
  int slot = -1;       // event-driven: schedule slot serving this op
};

[[nodiscard]] const char* to_string(SyncOp::Kind k);

/// Behavior of one CFG node in the abstract semantics. A node with no ops
/// is internal: always enabled, invisible to every other thread.
struct NodeModel {
  std::vector<SyncOp> ops;
  /// Successor CFG nodes; the Exit node loops back to Entry (threads
  /// restart after each run-to-completion pass).
  std::vector<int> succs;
};

/// One thread as an automaton over its CFG nodes.
struct ThreadModel {
  std::string name;
  analysis::Cfg cfg;
  std::vector<NodeModel> nodes;  // indexed by CFG node id
  int entry = -1;
};

/// One dependency of the program, tied to the controller that guards it.
struct DepModel {
  const hic::Dependency* dep = nullptr;
  int controller = -1;
  int dependency_number = 0;
  /// Consuming (thread index, CFG node) per consumer, pragma order.
  struct ConsumeSite {
    int thread = -1;
    int node = -1;
  };
  std::vector<ConsumeSite> consume_sites;
  int producer_thread = -1;
  int producer_node = -1;
};

/// One generated memory-organization controller (one per allocated BRAM
/// that carries dependencies).
struct ControllerModel {
  int bram_id = -1;
  std::vector<int> deps;  // indices into ProgramModel::deps(), BRAM order
  /// CAM capacity memalloc chose: the number of dependency-list entries
  /// the generator bakes in.
  int cam_capacity = 0;
  /// Event-driven schedule length (producer slot + one per consumer, per
  /// dependency).
  int total_slots = 0;
  /// Pseudo-port counts, for the fairness window (docs/VERIFICATION.md).
  int consumer_ports = 0;
  int producer_ports = 0;
};

/// The whole program as a product of thread automata composed with the
/// abstract controller state. Immutable after build().
class ProgramModel {
 public:
  /// `sema` must have run successfully; `map`/`plans` from the allocator
  /// and port planner. All references must outlive the model.
  static ProgramModel build(const hic::Program& program,
                            const hic::Sema& sema,
                            const memalloc::MemoryMap& map,
                            const std::vector<memalloc::BramPortPlan>& plans,
                            sim::OrgKind organization);

  [[nodiscard]] sim::OrgKind organization() const { return organization_; }
  [[nodiscard]] const std::vector<ThreadModel>& threads() const {
    return threads_;
  }
  [[nodiscard]] const std::vector<DepModel>& deps() const { return deps_; }
  [[nodiscard]] const std::vector<ControllerModel>& controllers() const {
    return controllers_;
  }
  [[nodiscard]] int thread_index(const std::string& name) const;

  /// Human-readable description of one sync op ("consume 'mt1'" /
  /// "produce 'mt1'").
  [[nodiscard]] std::string op_str(const SyncOp& op) const;

  /// Worst-case cycles between a sync op becoming enabled and its grant,
  /// under round-robin fairness: the §3.1 arbitration window (consumer
  /// pseudo-ports round-robin plus D-over-C priority preemption) for the
  /// arbitrated organization; 1 for event-driven, whose slot owner is
  /// granted immediately on request.
  [[nodiscard]] int fairness_window(int controller) const;

 private:
  sim::OrgKind organization_ = sim::OrgKind::Arbitrated;
  std::vector<ThreadModel> threads_;
  std::unordered_map<std::string, int> thread_ids_;  // name -> first thread
  std::vector<DepModel> deps_;
  std::vector<ControllerModel> controllers_;
};

}  // namespace hicsync::verify
