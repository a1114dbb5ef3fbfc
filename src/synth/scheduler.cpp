#include "synth/scheduler.h"

#include <algorithm>
#include <map>

namespace hicsync::synth {
namespace {

/// True if the access targets storage that occupies a memory port (arrays
/// and inter-thread shared variables; plain scalars become registers).
bool is_memory_access(const StateAccess& a) {
  return a.symbol->is_array() || a.symbol->is_shared();
}

int memory_access_count(const FsmState& s) {
  int n = 0;
  for (const auto& a : s.accesses) {
    if (is_memory_access(a)) ++n;
  }
  return n;
}

bool has_dependency_access(const FsmState& s) {
  for (const auto& a : s.accesses) {
    if (a.role != AccessRole::Plain) return true;
  }
  return false;
}

/// B reads a value A writes?
bool raw_hazard(const FsmState& a, const FsmState& b) {
  for (const auto& wa : a.accesses) {
    if (!wa.is_write) continue;
    for (const auto& rb : b.accesses) {
      if (!rb.is_write && rb.symbol == wa.symbol) return true;
    }
  }
  return false;
}

/// Write-write to the same symbol also forbids chaining (final value order).
bool waw_hazard(const FsmState& a, const FsmState& b) {
  for (const auto& wa : a.accesses) {
    if (!wa.is_write) continue;
    for (const auto& wb : b.accesses) {
      if (wb.is_write && wb.symbol == wa.symbol) return true;
    }
  }
  return false;
}

}  // namespace

ScheduleStats schedule(ThreadFsm& fsm, const SchedulePolicy& policy) {
  ScheduleStats stats;
  stats.states_before = static_cast<int>(fsm.states().size());
  stats.states_after = stats.states_before;
  if (!policy.chain_states) return stats;

  auto& states = fsm.mutable_states();

  // Predecessor counts (over all transition kinds).
  auto compute_pred_counts = [&]() {
    std::map<int, int> preds;
    for (const FsmState& s : states) {
      s.for_each_successor([&](int t) { ++preds[t]; });
    }
    return preds;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    std::map<int, int> preds = compute_pred_counts();
    for (FsmState& a : states) {
      if (a.kind != StateKind::Action || a.next < 0) continue;
      FsmState& b = states[static_cast<std::size_t>(a.next)];
      if (b.id == a.id) continue;  // self loop
      if (b.kind != StateKind::Action) continue;
      if (preds[b.id] != 1) continue;
      if (b.id == fsm.initial()) continue;
      if (has_dependency_access(a) || has_dependency_access(b)) continue;
      if (raw_hazard(a, b) || waw_hazard(a, b)) continue;
      if (memory_access_count(a) + memory_access_count(b) >
          policy.max_mem_accesses_per_state) {
        continue;
      }
      // Merge b into a.
      a.chained.push_back(b.stmt);
      for (const auto& cs : b.chained) a.chained.push_back(cs);
      a.accesses.insert(a.accesses.end(), b.accesses.begin(),
                        b.accesses.end());
      a.next = b.next;
      // Mark b as dead by making it an unreachable Done-like stub; we then
      // compact below.
      b.kind = StateKind::Done;
      b.next = -1;
      b.accesses.clear();
      b.chained.clear();
      b.stmt = nullptr;
      ++stats.chained_pairs;
      changed = true;
      break;  // recompute preds
    }
  }

  // Compact: drop unreachable states and renumber.
  std::vector<char> reachable(states.size(), 0);
  std::vector<int> stack{fsm.initial()};
  reachable[static_cast<std::size_t>(fsm.initial())] = 1;
  while (!stack.empty()) {
    const FsmState& s = states[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    s.for_each_successor([&](int t) {
      if (!reachable[static_cast<std::size_t>(t)]) {
        reachable[static_cast<std::size_t>(t)] = 1;
        stack.push_back(t);
      }
    });
  }

  std::vector<int> remap(states.size(), -1);
  std::vector<FsmState> compacted;
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (!reachable[i]) continue;
    remap[i] = static_cast<int>(compacted.size());
    compacted.push_back(std::move(states[i]));
  }
  auto fix = [&](int& t) {
    if (t >= 0) t = remap[static_cast<std::size_t>(t)];
  };
  for (FsmState& s : compacted) {
    s.id = static_cast<int>(&s - compacted.data());
    fix(s.next);
    fix(s.true_target);
    fix(s.false_target);
    for (auto& ct : s.case_targets) fix(ct.target);
  }
  // Rebuild through the mutable interface: swap the vector and fix
  // initial/done via validate-safe mutation. ThreadFsm exposes states by
  // reference; initial/done must be remapped with the same table.
  int new_initial = remap[static_cast<std::size_t>(fsm.initial())];
  int new_done = remap[static_cast<std::size_t>(fsm.done())];
  states = std::move(compacted);
  // Store remapped entry points (friend-free: use the public setter below).
  fsm.set_entry_points(new_initial, new_done);

  stats.states_after = static_cast<int>(states.size());
  return stats;
}

std::vector<ThreadFsm> synthesize_program(const hic::Program& program,
                                          const hic::Sema& sema,
                                          const SchedulePolicy& policy) {
  std::vector<ThreadFsm> fsms;
  fsms.reserve(program.threads.size());
  for (const hic::ThreadDecl& t : program.threads) {
    ThreadFsm fsm = ThreadFsm::synthesize(t, sema);
    schedule(fsm, policy);
    fsms.push_back(std::move(fsm));
  }
  return fsms;
}

}  // namespace hicsync::synth
