#include "verify/explore.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "support/strings.h"

namespace hicsync::verify {

namespace {

struct StateHash {
  std::size_t operator()(const State& s) const {
    // FNV-1a over the bytes of the canonical packed encoding.
    return static_cast<std::size_t>(support::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(s.data()),
        s.size() * sizeof(State::value_type))));
  }
};

}  // namespace

const char* to_string(Budget b) {
  switch (b) {
    case Budget::None: return "none";
    case Budget::States: return "states";
    case Budget::Depth: return "depth";
  }
  return "?";
}

Explorer::Explorer(const ProgramModel& model, ExploreOptions options)
    : model_(model), options_(options) {
  countdown_base_ = model_.threads().size();
  for (const ControllerModel& c : model_.controllers()) {
    ControllerStats st;
    st.bram_id = c.bram_id;
    st.cam_capacity = c.cam_capacity;
    st.total_slots = c.total_slots;
    controller_stats_.push_back(st);
  }
}

State Explorer::initial_state() const {
  State s;
  for (const ThreadModel& t : model_.threads()) {
    s.push_back(static_cast<std::uint16_t>(t.entry));
  }
  if (model_.organization() == sim::OrgKind::Arbitrated) {
    // Reset state: every countdown at zero — producers may write, every
    // consumer read is guarded until then.
    s.resize(countdown_base_ + model_.deps().size(), 0);
  } else {
    // Event-driven selection logic starts in slot 0 of each controller.
    s.resize(countdown_base_ + model_.controllers().size(), 0);
  }
  return s;
}

bool Explorer::op_enabled(const State& s, const SyncOp& op) const {
  if (model_.organization() == sim::OrgKind::Arbitrated) {
    std::uint16_t countdown =
        s[countdown_base_ + static_cast<std::size_t>(op.dep)];
    return op.kind == SyncOp::Kind::Produce ? countdown == 0 : countdown > 0;
  }
  return s[countdown_base_ + static_cast<std::size_t>(op.controller)] ==
         static_cast<std::uint16_t>(op.slot);
}

bool Explorer::node_enabled(const State& s, int thread) const {
  const ThreadModel& t = model_.threads()[static_cast<std::size_t>(thread)];
  const NodeModel& n = t.nodes[static_cast<std::size_t>(pc(s, thread))];
  for (const SyncOp& op : n.ops) {
    if (!op_enabled(s, op)) return false;
  }
  return true;
}

void Explorer::enabled_transitions(const State& s, int thread,
                                   std::vector<Transition>& out) const {
  const ThreadModel& t = model_.threads()[static_cast<std::size_t>(thread)];
  const NodeModel& n = t.nodes[static_cast<std::size_t>(pc(s, thread))];
  if (n.succs.empty()) return;
  if (!n.ops.empty() && !node_enabled(s, thread)) return;
  for (int succ : n.succs) out.push_back(Transition{thread, succ});
}

void Explorer::apply(State& s, int thread, const Transition& t) const {
  const ThreadModel& tm = model_.threads()[static_cast<std::size_t>(thread)];
  const NodeModel& n = tm.nodes[static_cast<std::size_t>(pc(s, thread))];
  for (const SyncOp& op : n.ops) {
    if (model_.organization() == sim::OrgKind::Arbitrated) {
      std::size_t idx = countdown_base_ + static_cast<std::size_t>(op.dep);
      if (op.kind == SyncOp::Kind::Produce) {
        s[idx] = static_cast<std::uint16_t>(
            model_.deps()[static_cast<std::size_t>(op.dep)]
                .dependency_number);
      } else {
        s[idx] = static_cast<std::uint16_t>(s[idx] - 1);
      }
    } else {
      std::size_t idx =
          countdown_base_ + static_cast<std::size_t>(op.controller);
      int total = model_.controllers()[static_cast<std::size_t>(op.controller)]
                      .total_slots;
      s[idx] = static_cast<std::uint16_t>((s[idx] + 1) % total);
    }
  }
  s[static_cast<std::size_t>(thread)] = static_cast<std::uint16_t>(t.to);
}

void Explorer::note_state(const State& s) {
  if (model_.organization() == sim::OrgKind::Arbitrated) {
    for (std::size_t ci = 0; ci < model_.controllers().size(); ++ci) {
      const ControllerModel& c = model_.controllers()[ci];
      int open = 0;
      for (int di : c.deps) {
        if (s[countdown_base_ + static_cast<std::size_t>(di)] > 0) ++open;
      }
      ControllerStats& st = controller_stats_[ci];
      st.max_occupancy = std::max(st.max_occupancy, open);
    }
  } else {
    for (std::size_t ci = 0; ci < model_.controllers().size(); ++ci) {
      int slot = s[countdown_base_ + ci];
      ControllerStats& st = controller_stats_[ci];
      st.max_slot = std::max(st.max_slot, slot);
    }
  }
}

std::string Explorer::guard_reason(const State& s, const SyncOp& op) const {
  const DepModel& d = model_.deps()[static_cast<std::size_t>(op.dep)];
  if (model_.organization() == sim::OrgKind::Arbitrated) {
    std::uint16_t countdown =
        s[countdown_base_ + static_cast<std::size_t>(op.dep)];
    if (op.kind == SyncOp::Kind::Consume) {
      return support::format(
          "countdown of '%s' is 0: nothing produced for this round",
          d.dep->id.c_str());
    }
    return support::format(
        "countdown of '%s' is %d: %d consumer read(s) of the previous "
        "round still outstanding",
        d.dep->id.c_str(), static_cast<int>(countdown),
        static_cast<int>(countdown));
  }
  int cur = s[countdown_base_ + static_cast<std::size_t>(op.controller)];
  return support::format(
      "schedule of bram%d is in slot %d, this access owns slot %d",
      model_.controllers()[static_cast<std::size_t>(op.controller)].bram_id,
      cur, op.slot);
}

bool Explorer::run() {
  std::unordered_map<State, std::int32_t, StateHash> index;
  std::deque<std::int32_t> frontier;

  auto intern = [&](const State& s) -> std::pair<std::int32_t, bool> {
    auto it = index.find(s);
    if (it != index.end()) return {it->second, false};
    std::int32_t id = static_cast<std::int32_t>(states_.size());
    index.emplace(s, id);
    states_.push_back(s);
    depth_.push_back(0);
    parent_.emplace_back(-1, Step{});
    if (options_.build_graph) graph_.emplace_back();
    note_state(s);
    return {id, true};
  };

  State init = initial_state();
  frontier.push_back(intern(init).first);

  std::vector<Transition> trans;
  std::vector<Transition> all;
  while (!frontier.empty()) {
    if (states_.size() >= options_.max_states && !frontier.empty()) {
      complete_ = false;
      budget_ = Budget::States;
      break;
    }
    std::int32_t id = frontier.front();
    frontier.pop_front();
    // Depth budget: BFS pops in nondecreasing depth, so the first state at
    // the limit means every remaining frontier state is at it too — stop
    // expanding (the already-recorded graph stays intact).
    if (options_.max_depth > 0 &&
        depth_[static_cast<std::size_t>(id)] >= options_.max_depth) {
      complete_ = false;
      budget_ = Budget::Depth;
      continue;
    }
    // states_ may reallocate while expanding; copy the state out.
    State s = states_[static_cast<std::size_t>(id)];

    // Persistent set: a thread at an internal node moves invisibly and
    // independently of all others — expand it alone. The cycle proviso
    // below falls back to full expansion when the reduction would only
    // revisit known states (the BFS variant of Peled's C3 condition).
    int ample_thread = -1;
    if (options_.por) {
      for (std::size_t t = 0; t < model_.threads().size(); ++t) {
        const ThreadModel& tm = model_.threads()[t];
        const NodeModel& n =
            tm.nodes[static_cast<std::size_t>(pc(s, static_cast<int>(t)))];
        if (n.ops.empty() && !n.succs.empty()) {
          ample_thread = static_cast<int>(t);
          break;
        }
      }
    }

    auto expand = [&](const std::vector<Transition>& ts) -> bool {
      // Returns true when at least one successor was new.
      bool fresh = false;
      for (const Transition& t : ts) {
        State next = s;
        apply(next, t.thread, t);
        auto [nid, is_new] = intern(next);
        ++transitions_;
        if (options_.build_graph) {
          graph_[static_cast<std::size_t>(id)].push_back(nid);
        }
        if (is_new) {
          fresh = true;
          depth_[static_cast<std::size_t>(nid)] =
              depth_[static_cast<std::size_t>(id)] + 1;
          parent_[static_cast<std::size_t>(nid)] = {
              id, Step{t.thread, pc(s, t.thread), t.to}};
          frontier.push_back(nid);
        }
      }
      return fresh;
    };

    bool reduced = false;
    if (ample_thread >= 0) {
      trans.clear();
      enabled_transitions(s, ample_thread, trans);
      std::size_t edges_before =
          options_.build_graph ? graph_[static_cast<std::size_t>(id)].size()
                               : 0;
      std::uint64_t trans_before = transitions_;
      if (expand(trans)) {
        reduced = true;
      } else {
        // Cycle proviso: every reduced successor already known; undo the
        // bookkeeping and expand fully so no thread is ignored forever.
        if (options_.build_graph) {
          graph_[static_cast<std::size_t>(id)].resize(edges_before);
        }
        transitions_ = trans_before;
      }
    }
    if (!reduced) {
      all.clear();
      for (std::size_t t = 0; t < model_.threads().size(); ++t) {
        enabled_transitions(s, static_cast<int>(t), all);
      }
      if (all.empty()) {
        // No thread can move: a genuine deadlock of the product system
        // (internal nodes are always enabled, so every thread is stuck
        // at an unsatisfied sync guard).
        if (deadlock_.state_id < 0) {
          deadlock_.state_id = id;
          for (std::size_t t = 0; t < model_.threads().size(); ++t) {
            const ThreadModel& tm = model_.threads()[t];
            int node = pc(s, static_cast<int>(t));
            const NodeModel& n = tm.nodes[static_cast<std::size_t>(node)];
            for (const SyncOp& op : n.ops) {
              if (op_enabled(s, op)) continue;
              BlockedThread b;
              b.thread = static_cast<int>(t);
              b.node = node;
              b.op = op;
              b.reason = guard_reason(s, op);
              deadlock_.blocked.push_back(b);
              break;
            }
          }
          // Minimal schedule: walk the BFS parent chain.
          std::vector<Step> rev;
          std::int32_t cur = id;
          while (parent_[static_cast<std::size_t>(cur)].first >= 0) {
            rev.push_back(parent_[static_cast<std::size_t>(cur)].second);
            cur = parent_[static_cast<std::size_t>(cur)].first;
          }
          deadlock_.steps.assign(rev.rbegin(), rev.rend());
        }
        continue;
      }
      expand(all);
    }
  }
  return complete_;
}

std::string Explorer::render(const Counterexample& cex) const {
  std::string out;
  if (cex.steps.empty()) {
    out += "  (violation holds in the initial state: no schedule needed)\n";
  }
  for (std::size_t i = 0; i < cex.steps.size(); ++i) {
    const Step& st = cex.steps[i];
    const ThreadModel& tm =
        model_.threads()[static_cast<std::size_t>(st.thread)];
    const NodeModel& n = tm.nodes[static_cast<std::size_t>(st.from)];
    std::string what;
    if (!n.ops.empty()) {
      for (const SyncOp& op : n.ops) {
        if (!what.empty()) what += " + ";
        what += model_.op_str(op);
      }
    } else {
      const analysis::CfgNode& cn = tm.cfg.node(st.from);
      switch (cn.kind) {
        case analysis::CfgNodeKind::Entry: what = "start pass"; break;
        case analysis::CfgNodeKind::Exit: what = "finish pass"; break;
        case analysis::CfgNodeKind::Branch: what = "branch"; break;
        default: what = "internal"; break;
      }
      if (cn.stmt != nullptr && cn.stmt->loc.valid()) {
        what += " at " + cn.stmt->loc.str();
      }
    }
    out += support::format("  %2zu. %-12s %s\n", i + 1, tm.name.c_str(),
                           what.c_str());
  }
  for (const BlockedThread& b : cex.blocked) {
    const ThreadModel& tm =
        model_.threads()[static_cast<std::size_t>(b.thread)];
    const analysis::CfgNode& cn = tm.cfg.node(b.node);
    out += support::format(
        "  blocked: %s at %s on %s — %s\n", tm.name.c_str(),
        cn.stmt != nullptr && cn.stmt->loc.valid() ? cn.stmt->loc.str().c_str()
                                                   : "<entry>",
        model_.op_str(b.op).c_str(), b.reason.c_str());
  }
  return out;
}

}  // namespace hicsync::verify
