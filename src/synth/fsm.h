// Behavioural synthesis: hic threads → cycle-accurate finite state machines.
//
// §3 of the paper: "a series of synthesis steps are applied that transform
// the hic threads into state machines. These state machines are cycle
// accurate and we have knowledge of the particular state where memory
// accesses happen," under the working assumption that every memory access is
// single-cycle. Dependency-annotated accesses may later stall (blocking
// consumer reads); those states carry their Dependency so the memory
// organization generators know where to attach guards/events.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "hic/sema.h"

namespace hicsync::synth {

/// Role of one memory access inside a state.
enum class AccessRole {
  Plain,         // ordinary access (arbitrated org: port A)
  ConsumerRead,  // guarded read of a shared variable (port C)
  ProducerWrite, // dependency-completing write (port D)
};

[[nodiscard]] const char* to_string(AccessRole r);

struct StateAccess {
  hic::Symbol* symbol = nullptr;
  bool is_write = false;
  AccessRole role = AccessRole::Plain;
  const hic::Dependency* dep = nullptr;  // for ConsumerRead/ProducerWrite
};

enum class StateKind {
  Action,  // executes one assignment, then an unconditional transition
  Branch,  // evaluates a condition/scrutinee and selects a successor
  Done,    // thread finished its run-to-completion pass
};

struct CaseTransition {
  bool is_default = false;
  std::uint64_t value = 0;
  int target = -1;
};

struct FsmState {
  int id = -1;
  StateKind kind = StateKind::Action;
  const hic::Stmt* stmt = nullptr;
  const hic::Expr* cond = nullptr;  // Branch only

  // Action: unconditional successor. After scheduling, an Action state may
  // execute several chained statements (see synth/scheduler.h).
  int next = -1;
  std::vector<const hic::Stmt*> chained;  // extra stmts merged into this state

  // Branch with boolean condition (if/while/for):
  int true_target = -1;
  int false_target = -1;
  // Branch over a case scrutinee:
  std::vector<CaseTransition> case_targets;

  std::vector<StateAccess> accesses;

  /// Calls f(target) for every transition target that is set: next, the
  /// true and false targets, then each case target.
  template <class F>
  void for_each_successor(F&& f) const {
    for (int t : {next, true_target, false_target}) {
      if (t >= 0) f(t);
    }
    for (const CaseTransition& ct : case_targets) {
      if (ct.target >= 0) f(ct.target);
    }
  }

  [[nodiscard]] bool blocks() const {
    for (const auto& a : accesses) {
      if (a.role == AccessRole::ConsumerRead) return true;
    }
    return false;
  }
  [[nodiscard]] bool produces() const {
    for (const auto& a : accesses) {
      if (a.role == AccessRole::ProducerWrite) return true;
    }
    return false;
  }
};

/// The synthesized FSM of one thread.
class ThreadFsm {
 public:
  /// Synthesizes the FSM for `thread`. `sema` supplies symbol resolution and
  /// the bound dependencies used to annotate access roles.
  static ThreadFsm synthesize(const hic::ThreadDecl& thread,
                              const hic::Sema& sema);

  [[nodiscard]] const std::string& thread_name() const { return thread_; }
  [[nodiscard]] const std::vector<FsmState>& states() const { return states_; }
  [[nodiscard]] std::vector<FsmState>& mutable_states() { return states_; }
  /// Used by the scheduler after compacting states.
  void set_entry_points(int initial, int done) {
    initial_ = initial;
    done_ = done;
  }
  [[nodiscard]] int initial() const { return initial_; }
  [[nodiscard]] int done() const { return done_; }
  [[nodiscard]] const FsmState& state(int id) const {
    return states_[static_cast<std::size_t>(id)];
  }

  /// Number of state bits a one-hot / binary encoding needs.
  [[nodiscard]] int state_bits() const;

  /// States whose accesses include a blocking consumer read.
  [[nodiscard]] std::vector<int> blocking_states() const;
  /// States whose accesses include a producer write.
  [[nodiscard]] std::vector<int> producing_states() const;

  /// Cycle count of the longest acyclic path initial → done, assuming every
  /// access is single-cycle (the paper's pre-dependency assumption). Returns
  /// -1 if the FSM contains a cycle (loops make it unbounded).
  [[nodiscard]] int latency_bound() const;

  /// Structural sanity: every transition targets a valid state and every
  /// state is reachable from initial.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  [[nodiscard]] std::string str() const;

 private:
  int add_state(StateKind kind, const hic::Stmt* stmt, const hic::Expr* cond);
  /// Lowers a statement list; `incoming` are dangling (state, slot) pairs to
  /// patch once the next state id is known.
  struct Patch {
    int state;
    enum class Slot { Next, True, False, Case } slot;
    std::size_t case_index = 0;
  };
  std::vector<Patch> lower_list(const std::vector<hic::StmtPtr>& list,
                                std::vector<Patch> incoming,
                                std::vector<std::vector<Patch>*>& break_stack,
                                std::vector<int>& continue_targets);
  std::vector<Patch> lower_stmt(const hic::Stmt& stmt,
                                std::vector<Patch> incoming,
                                std::vector<std::vector<Patch>*>& break_stack,
                                std::vector<int>& continue_targets);
  void patch_to(const std::vector<Patch>& patches, int target);
  void annotate_accesses(const hic::Sema& sema);

  std::string thread_;
  std::vector<FsmState> states_;
  int initial_ = -1;
  int done_ = -1;
};

}  // namespace hicsync::synth
