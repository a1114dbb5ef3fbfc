#include "synth/fsm.h"

#include <algorithm>

#include "support/bits.h"

namespace hicsync::synth {

const char* to_string(AccessRole r) {
  switch (r) {
    case AccessRole::Plain: return "plain";
    case AccessRole::ConsumerRead: return "consumer-read";
    case AccessRole::ProducerWrite: return "producer-write";
  }
  return "unknown";
}

int ThreadFsm::add_state(StateKind kind, const hic::Stmt* stmt,
                         const hic::Expr* cond) {
  FsmState s;
  s.id = static_cast<int>(states_.size());
  s.kind = kind;
  s.stmt = stmt;
  s.cond = cond;
  states_.push_back(std::move(s));
  return states_.back().id;
}

void ThreadFsm::patch_to(const std::vector<Patch>& patches, int target) {
  for (const Patch& p : patches) {
    FsmState& s = states_[static_cast<std::size_t>(p.state)];
    switch (p.slot) {
      case Patch::Slot::Next:
        s.next = target;
        break;
      case Patch::Slot::True:
        s.true_target = target;
        break;
      case Patch::Slot::False:
        s.false_target = target;
        break;
      case Patch::Slot::Case:
        s.case_targets[p.case_index].target = target;
        break;
    }
  }
}

ThreadFsm ThreadFsm::synthesize(const hic::ThreadDecl& thread,
                                const hic::Sema& sema) {
  ThreadFsm fsm;
  fsm.thread_ = thread.name;

  std::vector<std::vector<Patch>*> break_stack;
  std::vector<int> continue_targets;

  // A synthetic initial patch: the first lowered state becomes `initial_`.
  // We lower the body and then create the Done state; the initial state is
  // the first state created (or Done itself for an empty body).
  std::vector<Patch> incoming;  // nothing to patch for the first state
  std::vector<Patch> exits =
      fsm.lower_list(thread.body, std::move(incoming), break_stack,
                     continue_targets);
  fsm.done_ = fsm.add_state(StateKind::Done, nullptr, nullptr);
  fsm.patch_to(exits, fsm.done_);
  fsm.initial_ = fsm.states_.size() == 1 ? fsm.done_ : 0;

  fsm.annotate_accesses(sema);
  return fsm;
}

std::vector<ThreadFsm::Patch> ThreadFsm::lower_list(
    const std::vector<hic::StmtPtr>& list, std::vector<Patch> incoming,
    std::vector<std::vector<Patch>*>& break_stack,
    std::vector<int>& continue_targets) {
  for (const auto& s : list) {
    incoming = lower_stmt(*s, std::move(incoming), break_stack,
                          continue_targets);
  }
  return incoming;
}

std::vector<ThreadFsm::Patch> ThreadFsm::lower_stmt(
    const hic::Stmt& stmt, std::vector<Patch> incoming,
    std::vector<std::vector<Patch>*>& break_stack,
    std::vector<int>& continue_targets) {
  switch (stmt.kind) {
    case hic::StmtKind::Assign: {
      int s = add_state(StateKind::Action, &stmt, nullptr);
      patch_to(incoming, s);
      return {Patch{s, Patch::Slot::Next, 0}};
    }
    case hic::StmtKind::If: {
      int b = add_state(StateKind::Branch, &stmt, stmt.cond.get());
      patch_to(incoming, b);
      std::vector<Patch> then_in{{b, Patch::Slot::True, 0}};
      std::vector<Patch> exits =
          lower_list(stmt.then_body, std::move(then_in), break_stack,
                     continue_targets);
      if (stmt.else_body.empty()) {
        exits.push_back(Patch{b, Patch::Slot::False, 0});
      } else {
        std::vector<Patch> else_in{{b, Patch::Slot::False, 0}};
        std::vector<Patch> else_exits =
            lower_list(stmt.else_body, std::move(else_in), break_stack,
                       continue_targets);
        exits.insert(exits.end(), else_exits.begin(), else_exits.end());
      }
      return exits;
    }
    case hic::StmtKind::Case: {
      int b = add_state(StateKind::Branch, &stmt, stmt.cond.get());
      patch_to(incoming, b);
      FsmState& bs = states_[static_cast<std::size_t>(b)];
      bs.case_targets.reserve(stmt.arms.size());
      std::vector<Patch> exits;
      bool has_default = false;
      for (std::size_t i = 0; i < stmt.arms.size(); ++i) {
        const hic::CaseArm& arm = stmt.arms[i];
        has_default |= arm.is_default;
        states_[static_cast<std::size_t>(b)].case_targets.push_back(
            CaseTransition{arm.is_default, arm.value, -1});
        std::vector<Patch> arm_in{{b, Patch::Slot::Case, i}};
        std::vector<Patch> arm_exits =
            lower_list(arm.body, std::move(arm_in), break_stack,
                       continue_targets);
        exits.insert(exits.end(), arm_exits.begin(), arm_exits.end());
      }
      if (!has_default) {
        // No-match behaves as a default arm that goes straight on.
        std::size_t idx = states_[static_cast<std::size_t>(b)]
                              .case_targets.size();
        states_[static_cast<std::size_t>(b)].case_targets.push_back(
            CaseTransition{true, 0, -1});
        exits.push_back(Patch{b, Patch::Slot::Case, idx});
      }
      return exits;
    }
    case hic::StmtKind::While: {
      int b = add_state(StateKind::Branch, &stmt, stmt.cond.get());
      patch_to(incoming, b);
      std::vector<Patch> breaks;
      break_stack.push_back(&breaks);
      continue_targets.push_back(b);
      std::vector<Patch> body_in{{b, Patch::Slot::True, 0}};
      std::vector<Patch> body_exits =
          lower_list(stmt.body, std::move(body_in), break_stack,
                     continue_targets);
      break_stack.pop_back();
      continue_targets.pop_back();
      patch_to(body_exits, b);  // back edge
      std::vector<Patch> exits = std::move(breaks);
      exits.push_back(Patch{b, Patch::Slot::False, 0});
      return exits;
    }
    case hic::StmtKind::For: {
      std::vector<Patch> after_init =
          lower_stmt(*stmt.init, std::move(incoming), break_stack,
                     continue_targets);
      int b = add_state(StateKind::Branch, &stmt, stmt.cond.get());
      patch_to(after_init, b);
      int step = add_state(StateKind::Action, stmt.step.get(), nullptr);
      std::vector<Patch> breaks;
      break_stack.push_back(&breaks);
      continue_targets.push_back(step);
      std::vector<Patch> body_in{{b, Patch::Slot::True, 0}};
      std::vector<Patch> body_exits =
          lower_list(stmt.body, std::move(body_in), break_stack,
                     continue_targets);
      break_stack.pop_back();
      continue_targets.pop_back();
      patch_to(body_exits, step);
      states_[static_cast<std::size_t>(step)].next = b;
      std::vector<Patch> exits = std::move(breaks);
      exits.push_back(Patch{b, Patch::Slot::False, 0});
      return exits;
    }
    case hic::StmtKind::Break: {
      if (!break_stack.empty()) {
        for (const Patch& p : incoming) break_stack.back()->push_back(p);
      }
      return {};
    }
    case hic::StmtKind::Continue: {
      if (!continue_targets.empty()) {
        patch_to(incoming, continue_targets.back());
      }
      return {};
    }
    case hic::StmtKind::Block:
      return lower_list(stmt.body, std::move(incoming), break_stack,
                        continue_targets);
  }
  return incoming;
}

void ThreadFsm::annotate_accesses(const hic::Sema& sema) {
  auto walk = [](auto&& self, const hic::Expr& e, bool is_def,
                 std::vector<StateAccess>& out) -> void {
    switch (e.kind) {
      case hic::ExprKind::VarRef:
        if (e.symbol != nullptr) {
          out.push_back(StateAccess{e.symbol, is_def, AccessRole::Plain,
                                    nullptr});
        }
        return;
      case hic::ExprKind::Index:
        self(self, *e.operands[0], is_def, out);
        self(self, *e.operands[1], false, out);
        return;
      case hic::ExprKind::Member:
        self(self, *e.operands[0], is_def, out);
        return;
      case hic::ExprKind::IntLit:
      case hic::ExprKind::CharLit:
        return;
      default:
        for (const auto& op : e.operands) self(self, *op, false, out);
        return;
    }
  };

  for (FsmState& s : states_) {
    if (s.kind == StateKind::Action && s.stmt != nullptr &&
        s.stmt->kind == hic::StmtKind::Assign) {
      walk(walk, *s.stmt->value, false, s.accesses);
      walk(walk, *s.stmt->target, true, s.accesses);
    } else if (s.kind == StateKind::Branch && s.cond != nullptr) {
      walk(walk, *s.cond, false, s.accesses);
    }

    // Assign dependency roles.
    for (StateAccess& a : s.accesses) {
      for (const hic::Dependency& dep : sema.dependencies()) {
        if (a.is_write && s.stmt == dep.producer_stmt &&
            a.symbol == dep.shared_var) {
          a.role = AccessRole::ProducerWrite;
          a.dep = &dep;
        } else if (!a.is_write && a.symbol == dep.shared_var) {
          for (const hic::DepConsumer& c : dep.consumers) {
            if (c.stmt == s.stmt && c.thread == thread_) {
              a.role = AccessRole::ConsumerRead;
              a.dep = &dep;
            }
          }
        }
      }
    }
  }
}

int ThreadFsm::state_bits() const {
  return support::clog2_at_least1(states_.size());
}

std::vector<int> ThreadFsm::blocking_states() const {
  std::vector<int> out;
  for (const FsmState& s : states_) {
    if (s.blocks()) out.push_back(s.id);
  }
  return out;
}

std::vector<int> ThreadFsm::producing_states() const {
  std::vector<int> out;
  for (const FsmState& s : states_) {
    if (s.produces()) out.push_back(s.id);
  }
  return out;
}

int ThreadFsm::latency_bound() const {
  // Longest path in a DAG via DFS with memoization; detect cycles.
  const std::size_t n = states_.size();
  std::vector<int> depth(n, -2);  // -2 unvisited, -3 in progress
  for (auto& d : depth) d = -2;

  bool cyclic = false;
  auto dfs = [&](auto&& self, int id) -> int {
    auto i = static_cast<std::size_t>(id);
    if (depth[i] == -3) {
      cyclic = true;
      return 0;
    }
    if (depth[i] >= 0) return depth[i];
    depth[i] = -3;
    int best = 0;
    states_[i].for_each_successor(
        [&](int s) { best = std::max(best, 1 + self(self, s)); });
    depth[i] = best;
    return best;
  };
  int result = dfs(dfs, initial_);
  return cyclic ? -1 : result + 1;  // +1: the initial state takes a cycle
}

bool ThreadFsm::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  auto valid_target = [&](int t) {
    return t >= 0 && t < static_cast<int>(states_.size());
  };
  std::vector<char> reachable(states_.size(), 0);
  std::vector<int> stack{initial_};
  reachable[static_cast<std::size_t>(initial_)] = 1;
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const FsmState& s = states_[static_cast<std::size_t>(id)];
    std::vector<int> succs;
    switch (s.kind) {
      case StateKind::Action:
        if (!valid_target(s.next)) {
          return fail("state " + std::to_string(id) + " has invalid next");
        }
        succs.push_back(s.next);
        break;
      case StateKind::Branch:
        if (s.case_targets.empty()) {
          if (!valid_target(s.true_target) || !valid_target(s.false_target)) {
            return fail("state " + std::to_string(id) +
                        " has invalid branch targets");
          }
          succs.push_back(s.true_target);
          succs.push_back(s.false_target);
        } else {
          for (const auto& ct : s.case_targets) {
            if (!valid_target(ct.target)) {
              return fail("state " + std::to_string(id) +
                          " has invalid case target");
            }
            succs.push_back(ct.target);
          }
        }
        break;
      case StateKind::Done:
        break;
    }
    for (int t : succs) {
      if (!reachable[static_cast<std::size_t>(t)]) {
        reachable[static_cast<std::size_t>(t)] = 1;
        stack.push_back(t);
      }
    }
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!reachable[i]) {
      return fail("state " + std::to_string(i) + " unreachable");
    }
  }
  return true;
}

std::string ThreadFsm::str() const {
  std::string out = "fsm " + thread_ + " (initial=" +
                    std::to_string(initial_) + ", done=" +
                    std::to_string(done_) + ")\n";
  for (const FsmState& s : states_) {
    out += "  S" + std::to_string(s.id) + ": ";
    switch (s.kind) {
      case StateKind::Action:
        out += "action -> S" + std::to_string(s.next);
        break;
      case StateKind::Branch:
        if (s.case_targets.empty()) {
          out += "branch true->S" + std::to_string(s.true_target) +
                 " false->S" + std::to_string(s.false_target);
        } else {
          out += "case";
          for (const auto& ct : s.case_targets) {
            out += ct.is_default
                       ? " default->S" + std::to_string(ct.target)
                       : " " + std::to_string(ct.value) + "->S" +
                             std::to_string(ct.target);
          }
        }
        break;
      case StateKind::Done:
        out += "done";
        break;
    }
    for (const StateAccess& a : s.accesses) {
      out += std::string(" [") + (a.is_write ? "W " : "R ") +
             a.symbol->qualified_name();
      if (a.role != AccessRole::Plain) {
        out += std::string(" ") + to_string(a.role);
      }
      out += "]";
    }
    out += '\n';
  }
  return out;
}

}  // namespace hicsync::synth
