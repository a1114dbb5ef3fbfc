#include "bound/blocking.h"

#include <algorithm>
#include <initializer_list>
#include <unordered_map>

#include "bound/lattice.h"
#include "support/graph.h"
#include "support/strings.h"

namespace hicsync::bound {

namespace {

using verify::SyncOp;

/// Marks the nodes of one thread graph (successors from NodeModel, which
/// include the Exit→Entry restart edge) that lie on a cycle made of
/// usable nodes: their SCC over the usable subgraph is nontrivial or they
/// have a self-loop. `graph` is scratch, reused across calls.
std::vector<char> cycle_nodes(const verify::ThreadModel& tm,
                              const std::vector<char>& usable,
                              support::Csr& graph) {
  const std::size_t n = tm.nodes.size();
  graph.offsets.assign(1, 0);
  graph.targets.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (usable[v]) {
      for (int s : tm.nodes[v].succs) {
        if (usable[static_cast<std::size_t>(s)]) graph.targets.push_back(s);
      }
    }
    graph.offsets.push_back(static_cast<int>(graph.targets.size()));
  }
  const support::Scc scc = support::strongly_connected(graph);
  std::vector<char> on_cycle(n, 0);
  for (int c = 0; c < scc.count(); ++c) {
    if (!scc.cyclic(graph, c)) continue;
    for (int v : scc.members(c)) on_cycle[static_cast<std::size_t>(v)] = 1;
  }
  return on_cycle;
}

/// Per-thread cycle analysis shared by every endpoint of one
/// blocking_bounds call.
///
/// Whether a node is usable depends only on the usability of its ops'
/// inputs: (kind, dep) for arbitrated, the controller for event-driven. The
/// bit vector of which of a thread's distinct inputs are usable (its
/// signature, any width) therefore keys cycle_nodes' result, and every
/// endpoint and fixpoint round that presents the same signature shares one
/// pass. Input usability lives here too: flipping an input marks the
/// threads that read it, and only those are looked up again, so an
/// endpoint that starts from the previous one's state pays only for what
/// changed.
class ThreadCycles {
 public:
  explicit ThreadCycles(const verify::ProgramModel& model)
      : model_(model),
        arbitrated_(model.organization() == sim::OrgKind::Arbitrated) {
    const std::size_t nt = model.threads().size();
    usable_.assign(arbitrated_ ? 2 * model.deps().size()
                               : model.controllers().size(),
                   1);
    readers_.resize(usable_.size());
    threads_.resize(nt);
    current_.assign(nt, nullptr);
    live_.assign(nt, 0);
    dirty_.assign(nt, 1);
    std::size_t max_nodes = 0;
    for (std::size_t t = 0; t < nt; ++t) {
      dirty_list_.push_back(static_cast<int>(t));
      const verify::ThreadModel& tm = model.threads()[t];
      ThreadInputs& ti = threads_[t];
      max_nodes = std::max(max_nodes, tm.nodes.size());
      ti.node_begin.reserve(tm.nodes.size() + 1);
      for (const verify::NodeModel& node : tm.nodes) {
        ti.node_begin.push_back(static_cast<int>(ti.node_inputs.size()));
        for (const SyncOp& op : node.ops) {
          const int in = input_of(op);
          auto it = std::find(ti.inputs.begin(), ti.inputs.end(), in);
          ti.node_inputs.push_back(static_cast<int>(it - ti.inputs.begin()));
          if (it != ti.inputs.end()) continue;
          ti.inputs.push_back(in);
          readers_[static_cast<std::size_t>(in)].push_back(
              static_cast<int>(t));
        }
      }
      ti.node_begin.push_back(static_cast<int>(ti.node_inputs.size()));
    }
    frozen_.on_cycle.assign(max_nodes, 0);
  }

  /// Inputs: arbitrated 2*dep (consume) and 2*dep+1 (produce); event-driven
  /// the controller.
  [[nodiscard]] int produce(int dep) const { return 2 * dep + 1; }
  [[nodiscard]] int consume(int dep) const { return 2 * dep; }
  [[nodiscard]] int input_of(const SyncOp& op) const {
    if (!arbitrated_) return op.controller;
    return op.kind == SyncOp::Kind::Produce ? produce(op.dep)
                                            : consume(op.dep);
  }

  [[nodiscard]] bool usable(int in) const {
    return usable_[static_cast<std::size_t>(in)] != 0;
  }
  void set_unusable(int in) {
    if (!usable(in)) return;
    usable_[static_cast<std::size_t>(in)] = 0;
    mark_readers(in);
  }

  /// Starts an endpoint: thread c frozen (never moves: no node on a cycle,
  /// not live) and every input usable except `frozen` (-1 for none).
  /// Only threads reading an input whose usability differs from the
  /// previous endpoint's final state are marked.
  void start(int c, std::initializer_list<int> frozen) {
    for (std::size_t in = 0; in < usable_.size(); ++in) {
      const char want =
          std::find(frozen.begin(), frozen.end(), static_cast<int>(in)) ==
                  frozen.end()
              ? 1
              : 0;
      if (usable_[in] == want) continue;
      usable_[in] = want;
      mark_readers(static_cast<int>(in));
    }
    if (frozen_thread_ >= 0) mark(frozen_thread_);
    frozen_thread_ = c;
    mark(c);
  }

  /// Brings every thread whose inputs changed up to date.
  void refresh() {
    for (int t : dirty_list_) {
      const auto ut = static_cast<std::size_t>(t);
      dirty_[ut] = 0;
      current_[ut] = t == frozen_thread_ ? &frozen_ : &lookup(ut);
      live_[ut] = current_[ut]->live ? 1 : 0;
    }
    dirty_list_.clear();
  }

  [[nodiscard]] bool live(int t) const {
    return live_[static_cast<std::size_t>(t)] != 0;
  }
  [[nodiscard]] const std::vector<char>& live() const { return live_; }
  [[nodiscard]] bool on_cycle(int t, int node) const {
    return current_[static_cast<std::size_t>(t)]
               ->on_cycle[static_cast<std::size_t>(node)] != 0;
  }

  /// Number of cycle_nodes runs so far (memo misses).
  [[nodiscard]] std::uint64_t scans() const { return scans_; }

 private:
  struct Entry {
    std::vector<char> on_cycle;  // per node
    bool live = false;
  };
  using Key = std::vector<std::uint64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 1469598103934665603ULL;
      for (std::uint64_t w : k) h = (h ^ w) * 1099511628211ULL;
      return static_cast<std::size_t>(h);
    }
  };
  struct ThreadInputs {
    std::vector<int> inputs;       // distinct inputs of the thread's ops
    // Node n reads node_inputs[node_begin[n], node_begin[n + 1]), which
    // index into inputs.
    std::vector<int> node_begin;
    std::vector<int> node_inputs;
    std::unordered_map<Key, Entry, KeyHash> memo;  // by signature
  };

  void mark(int t) {
    const auto ut = static_cast<std::size_t>(t);
    if (dirty_[ut] != 0) return;
    dirty_[ut] = 1;
    dirty_list_.push_back(t);
  }
  void mark_readers(int in) {
    for (int t : readers_[static_cast<std::size_t>(in)]) mark(t);
  }

  const Entry& lookup(std::size_t t) {
    ThreadInputs& ti = threads_[t];
    key_.assign((ti.inputs.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < ti.inputs.size(); ++i) {
      if (usable(ti.inputs[i])) key_[i / 64] |= 1ULL << (i % 64);
    }
    auto [it, added] = ti.memo.try_emplace(key_);
    Entry& e = it->second;
    if (!added) return e;

    const verify::ThreadModel& tm = model_.threads()[t];
    std::vector<char> usable(tm.nodes.size(), 1);
    for (std::size_t n = 0; n < tm.nodes.size(); ++n) {
      for (int k = ti.node_begin[n]; k < ti.node_begin[n + 1]; ++k) {
        const auto i = static_cast<std::size_t>(
            ti.node_inputs[static_cast<std::size_t>(k)]);
        if (((key_[i / 64] >> (i % 64)) & 1ULL) == 0) usable[n] = 0;
      }
    }
    e.on_cycle = cycle_nodes(tm, usable, graph_);
    e.live = std::find(e.on_cycle.begin(), e.on_cycle.end(), 1) !=
             e.on_cycle.end();
    ++scans_;
    return e;
  }

  const verify::ProgramModel& model_;
  bool arbitrated_;
  std::vector<char> usable_;              // per input
  std::vector<std::vector<int>> readers_;  // per input: threads reading it
  std::vector<ThreadInputs> threads_;
  std::vector<const Entry*> current_;  // per thread, into its memo
  std::vector<char> live_;             // per thread
  std::vector<char> dirty_;            // per thread: inputs changed
  std::vector<int> dirty_list_;
  int frozen_thread_ = -1;
  Entry frozen_;
  Key key_;  // scratch
  support::Csr graph_;  // scratch
  std::uint64_t scans_ = 0;
};

struct EndpointAnalysis {
  const verify::ProgramModel& model;
  ThreadCycles& cycles;
  int d0;       // frozen dependency
  int c;        // frozen consumer thread
  bool explain;
  BlockingStaticBound* out;

  /// Some consumer endpoint of dep e, other than the frozen thread, can
  /// cycle through its consume site (so the countdown of e can drain
  /// every round).
  bool drain_ok(int e) const {
    const verify::DepModel& dm = model.deps()[static_cast<std::size_t>(e)];
    for (const verify::DepModel::ConsumeSite& site : dm.consume_sites) {
      if (site.thread < 0 || site.thread == c || site.node < 0) continue;
      if (cycles.on_cycle(site.thread, site.node)) return true;
    }
    return false;
  }

  // Dep-level usability (arbitrated) / controller usability (event-driven)
  // starts all-usable and shrinks to a greatest fixpoint.
  void run() {
    const std::size_t nd = model.deps().size();
    const std::size_t nc = model.controllers().size();
    const verify::DepModel& frozen =
        model.deps()[static_cast<std::size_t>(d0)];
    if (model.organization() == sim::OrgKind::Arbitrated) {
      // The guard stays disabled only while countdown(d0) == 0, which
      // rules out every op on d0 for the whole blocked stretch.
      cycles.start(c, {cycles.produce(d0), cycles.consume(d0)});
    } else {
      // The schedule of c's controller is parked short of c's slot; no op
      // of that controller can happen without first enabling the guard.
      cycles.start(c, {frozen.controller});
    }

    int round = 0;
    bool changed = true;
    while (changed) {
      ++round;
      cycles.refresh();
      changed = false;
      if (model.organization() == sim::OrgKind::Arbitrated) {
        for (std::size_t e = 0; e < nd; ++e) {
          const verify::DepModel& dm = model.deps()[e];
          const int produce = cycles.produce(static_cast<int>(e));
          const int consume = cycles.consume(static_cast<int>(e));
          if (cycles.usable(produce) && !drain_ok(static_cast<int>(e))) {
            cycles.set_unusable(produce);
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: produce('%s') cannot recur — no consumer "
                  "other than the frozen thread can cycle through a "
                  "consume of it, so its countdown never drains",
                  round, dm.dep->id.c_str()));
            }
          }
          bool prod_live = dm.producer_thread >= 0 &&
                           dm.producer_thread != c &&
                           cycles.live(dm.producer_thread) &&
                           cycles.usable(produce);
          if (cycles.usable(consume) && !prod_live) {
            cycles.set_unusable(consume);
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: consume('%s') cannot recur — its producer "
                  "cannot produce it infinitely often under the freeze",
                  round, dm.dep->id.c_str()));
            }
          }
        }
      } else {
        for (std::size_t x = 0; x < nc; ++x) {
          if (!cycles.usable(static_cast<int>(x))) continue;
          bool owners_live = true;
          for (int di : model.controllers()[x].deps) {
            const verify::DepModel& dm =
                model.deps()[static_cast<std::size_t>(di)];
            if (dm.producer_thread < 0 || dm.producer_thread == c ||
                !cycles.live(dm.producer_thread)) {
              owners_live = false;
            }
            for (const verify::DepModel::ConsumeSite& site :
                 dm.consume_sites) {
              if (site.thread < 0 || site.thread == c ||
                  !cycles.live(site.thread)) {
                owners_live = false;
              }
            }
          }
          if (!owners_live) {
            cycles.set_unusable(static_cast<int>(x));
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: bram%d schedule cannot complete a round — a "
                  "slot owner cannot move infinitely often under the "
                  "freeze",
                  round, model.controllers()[x].bram_id));
            }
          }
        }
      }
    }
  }
};

std::uint64_t cfg_size(const verify::ThreadModel& tm) {
  return static_cast<std::uint64_t>(std::max<std::size_t>(tm.nodes.size(), 1));
}

}  // namespace

std::vector<BlockingStaticBound> blocking_bounds(
    const verify::ProgramModel& model, bool explain,
    std::uint64_t* cycle_scans) {
  std::vector<BlockingStaticBound> out;
  ThreadCycles cycles(model);

  // Controller-state factor of the region-size bound, shared by every
  // endpoint: arbitrated Π(N_d + 1) countdown values, event-driven
  // Π total_slots slot values.
  std::uint64_t ctrl_states = 1;
  if (model.organization() == sim::OrgKind::Arbitrated) {
    for (const verify::DepModel& dm : model.deps()) {
      ctrl_states = sat_mul(
          ctrl_states,
          static_cast<std::uint64_t>(std::max(dm.dependency_number, 0)) + 1);
    }
  } else {
    for (const verify::ControllerModel& cm : model.controllers()) {
      ctrl_states = sat_mul(
          ctrl_states,
          static_cast<std::uint64_t>(std::max(cm.total_slots, 1)));
    }
  }

  // Region-size factor of every thread but one, as prefix and suffix
  // products of the CFG sizes: a saturating product of factors >= 1 is
  // min(product, kInf) in any grouping, so before[t] x after[t + 1] equals
  // the product over the other threads taken in order.
  const std::size_t nt = model.threads().size();
  std::vector<std::uint64_t> before(nt + 1, ctrl_states);
  std::vector<std::uint64_t> after(nt + 1, 1);
  for (std::size_t t = 0; t < nt; ++t) {
    before[t + 1] = sat_mul(before[t], cfg_size(model.threads()[t]));
  }
  for (std::size_t t = nt; t-- > 0;) {
    after[t] = sat_mul(after[t + 1], cfg_size(model.threads()[t]));
  }

  for (std::size_t di = 0; di < model.deps().size(); ++di) {
    const verify::DepModel& dm = model.deps()[di];
    for (std::size_t k = 0; k < dm.consume_sites.size(); ++k) {
      const verify::DepModel::ConsumeSite& site = dm.consume_sites[k];
      BlockingStaticBound b;
      b.dep = dm.dep->id;
      b.thread =
          site.thread >= 0
              ? model.threads()[static_cast<std::size_t>(site.thread)].name
              : "?";
      b.consumer = static_cast<int>(k);
      if (site.thread < 0 || site.node < 0) {
        b.bounded = true;
        out.push_back(std::move(b));
        continue;
      }

      EndpointAnalysis ea{model, cycles, static_cast<int>(di), site.thread,
                          explain, &b};
      ea.run();

      int live_thread = -1;
      for (std::size_t t = 0; t < cycles.live().size(); ++t) {
        if (cycles.live()[t]) live_thread = static_cast<int>(t);
      }
      if (live_thread >= 0) {
        b.bounded = false;
        b.note = support::format(
            "thread '%s' can cycle forever without ever enabling the "
            "read's guard (no op of '%s' on its cycle)",
            model.threads()[static_cast<std::size_t>(live_thread)]
                .name.c_str(),
            b.dep.c_str());
      } else {
        b.bounded = true;
        // Region-size bound: states with this consumer parked at its read
        // are at most Π (other threads' CFG sizes) × controller states;
        // the checker's exact longest blocked path cannot exceed it.
        const auto ct = static_cast<std::size_t>(site.thread);
        b.steps = sat_mul(before[ct], after[ct + 1]);
        int window =
            dm.controller >= 0 ? model.fairness_window(dm.controller) : 1;
        b.cycles = sat_mul(sat_add(b.steps, 1),
                           static_cast<std::uint64_t>(window) + 1);
        b.saturated = b.steps == kInf || b.cycles == kInf;
        if (explain) {
          b.provenance.push_back(support::format(
              "no thread can move infinitely often while '%s' waits; "
              "blocked-region bound: %llu controller state(s) x product of "
              "other threads' CFG sizes -> %s steps",
              b.thread.c_str(),
              static_cast<unsigned long long>(ctrl_states),
              b.saturated ? "saturated (2^64-1)"
                          : std::to_string(b.steps).c_str()));
        }
      }
      out.push_back(std::move(b));
    }
  }
  if (cycle_scans != nullptr) *cycle_scans = cycles.scans();
  return out;
}

}  // namespace hicsync::bound
