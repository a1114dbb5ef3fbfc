// Reference check of the blocking client's per-thread cycle memo.
//
// bound::blocking_bounds runs each thread's cycle analysis once per
// usable-op signature and shares the result across endpoints and fixpoint
// rounds. This file keeps the straightforward per-endpoint computation as
// the reference: every fixpoint round of every endpoint rebuilds each
// thread's usable vector and reruns the SCC pass. The two must agree on
// every field of every BlockingStaticBound, provenance included, with
// explain on and off, under both organizations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bound/blocking.h"
#include "bound/lattice.h"
#include "bound_test_util.h"
#include "memorg/controller.h"
#include "netapp/scenarios.h"
#include "support/strings.h"
#include "verify/model.h"

namespace hicsync::bound {
namespace {

using bound_test::bound_fixture_path;
using bound_test::compile_for_bound;
using bound_test::lint_fixture_path;
using bound_test::read_file;
using bound_test::verify_fixture_path;
using verify::SyncOp;

// --- reference: one SCC pass per thread per round per endpoint ------------

std::vector<char> ref_cycle_nodes(const verify::ThreadModel& tm,
                                  const std::vector<char>& usable) {
  const std::size_t n = tm.nodes.size();
  std::vector<std::int32_t> index(n, -1);
  std::vector<std::int32_t> lowlink(n, -1);
  std::vector<char> on_stack(n, 0);
  std::vector<std::int32_t> comp(n, -1);
  std::vector<std::int32_t> stack;
  std::vector<std::int32_t> comp_size;
  std::int32_t counter = 0;
  struct Frame {
    std::int32_t v;
    std::size_t next = 0;
  };
  for (std::size_t v0 = 0; v0 < n; ++v0) {
    if (!usable[v0] || index[v0] >= 0) continue;
    std::vector<Frame> dfs;
    dfs.push_back({static_cast<std::int32_t>(v0)});
    index[v0] = lowlink[v0] = counter++;
    stack.push_back(static_cast<std::int32_t>(v0));
    on_stack[v0] = 1;
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto& succs = tm.nodes[static_cast<std::size_t>(f.v)].succs;
      bool descended = false;
      while (f.next < succs.size()) {
        std::size_t w = static_cast<std::size_t>(succs[f.next]);
        ++f.next;
        if (!usable[w]) continue;
        if (index[w] < 0) {
          index[w] = lowlink[w] = counter++;
          stack.push_back(static_cast<std::int32_t>(w));
          on_stack[w] = 1;
          dfs.push_back({static_cast<std::int32_t>(w)});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[static_cast<std::size_t>(f.v)] =
              std::min(lowlink[static_cast<std::size_t>(f.v)], index[w]);
        }
      }
      if (descended) continue;
      std::int32_t v = f.v;
      dfs.pop_back();
      if (!dfs.empty()) {
        std::size_t p = static_cast<std::size_t>(dfs.back().v);
        lowlink[p] =
            std::min(lowlink[p], lowlink[static_cast<std::size_t>(v)]);
      }
      if (lowlink[static_cast<std::size_t>(v)] ==
          index[static_cast<std::size_t>(v)]) {
        std::int32_t c = static_cast<std::int32_t>(comp_size.size());
        comp_size.push_back(0);
        while (true) {
          std::int32_t w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          comp[static_cast<std::size_t>(w)] = c;
          ++comp_size.back();
          if (w == v) break;
        }
      }
    }
  }
  std::vector<char> on_cycle(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (!usable[v] || comp[v] < 0) continue;
    if (comp_size[static_cast<std::size_t>(comp[v])] > 1) {
      on_cycle[v] = 1;
      continue;
    }
    for (int s : tm.nodes[v].succs) {
      if (static_cast<std::size_t>(s) == v) on_cycle[v] = 1;
    }
  }
  return on_cycle;
}

struct RefEndpoint {
  const verify::ProgramModel& model;
  int d0;
  int c;
  bool explain;
  BlockingStaticBound* out;
  std::vector<char> produce_usable;
  std::vector<char> consume_usable;
  std::vector<char> controller_usable;
  std::vector<char> live;
  std::vector<std::vector<char>> on_cycle;

  bool arbitrated() const {
    return model.organization() == sim::OrgKind::Arbitrated;
  }

  bool op_usable(const SyncOp& op) const {
    if (arbitrated()) {
      return op.kind == SyncOp::Kind::Produce
                 ? produce_usable[static_cast<std::size_t>(op.dep)] != 0
                 : consume_usable[static_cast<std::size_t>(op.dep)] != 0;
    }
    return controller_usable[static_cast<std::size_t>(op.controller)] != 0;
  }

  void recompute_threads() {
    for (std::size_t t = 0; t < model.threads().size(); ++t) {
      const verify::ThreadModel& tm = model.threads()[t];
      if (static_cast<int>(t) == c) {
        live[t] = 0;
        on_cycle[t].assign(tm.nodes.size(), 0);
        continue;
      }
      std::vector<char> usable(tm.nodes.size(), 1);
      for (std::size_t n = 0; n < tm.nodes.size(); ++n) {
        for (const SyncOp& op : tm.nodes[n].ops) {
          if (!op_usable(op)) usable[n] = 0;
        }
      }
      on_cycle[t] = ref_cycle_nodes(tm, usable);
      live[t] = std::find(on_cycle[t].begin(), on_cycle[t].end(), 1) !=
                on_cycle[t].end();
    }
  }

  bool drain_ok(int e) const {
    for (const verify::DepModel::ConsumeSite& site :
         model.deps()[static_cast<std::size_t>(e)].consume_sites) {
      if (site.thread < 0 || site.thread == c || site.node < 0) continue;
      if (on_cycle[static_cast<std::size_t>(site.thread)]
                  [static_cast<std::size_t>(site.node)]) {
        return true;
      }
    }
    return false;
  }

  void note(const std::string& line) {
    if (explain) out->provenance.push_back(line);
  }

  void run() {
    const std::size_t nd = model.deps().size();
    const std::size_t nc = model.controllers().size();
    produce_usable.assign(nd, 1);
    consume_usable.assign(nd, 1);
    controller_usable.assign(nc, 1);
    live.assign(model.threads().size(), 1);
    on_cycle.assign(model.threads().size(), {});
    const verify::DepModel& frozen = model.deps()[static_cast<std::size_t>(d0)];
    if (arbitrated()) {
      produce_usable[static_cast<std::size_t>(d0)] = 0;
      consume_usable[static_cast<std::size_t>(d0)] = 0;
    } else if (frozen.controller >= 0) {
      controller_usable[static_cast<std::size_t>(frozen.controller)] = 0;
    }
    int round = 0;
    bool changed = true;
    while (changed) {
      ++round;
      recompute_threads();
      changed = false;
      if (arbitrated()) {
        for (std::size_t e = 0; e < nd; ++e) {
          const verify::DepModel& dm = model.deps()[e];
          if (produce_usable[e] && !drain_ok(static_cast<int>(e))) {
            produce_usable[e] = 0;
            changed = true;
            note(support::format(
                "round %d: produce('%s') cannot recur — no consumer "
                "other than the frozen thread can cycle through a "
                "consume of it, so its countdown never drains",
                round, dm.dep->id.c_str()));
          }
          bool prod_live =
              dm.producer_thread >= 0 && dm.producer_thread != c &&
              live[static_cast<std::size_t>(dm.producer_thread)] != 0 &&
              produce_usable[e] != 0;
          if (consume_usable[e] && !prod_live) {
            consume_usable[e] = 0;
            changed = true;
            note(support::format(
                "round %d: consume('%s') cannot recur — its producer "
                "cannot produce it infinitely often under the freeze",
                round, dm.dep->id.c_str()));
          }
        }
        continue;
      }
      for (std::size_t x = 0; x < nc; ++x) {
        if (!controller_usable[x]) continue;
        bool owners_live = true;
        for (int di : model.controllers()[x].deps) {
          const verify::DepModel& dm =
              model.deps()[static_cast<std::size_t>(di)];
          if (dm.producer_thread < 0 || dm.producer_thread == c ||
              !live[static_cast<std::size_t>(dm.producer_thread)]) {
            owners_live = false;
          }
          for (const verify::DepModel::ConsumeSite& site : dm.consume_sites) {
            if (site.thread < 0 || site.thread == c ||
                !live[static_cast<std::size_t>(site.thread)]) {
              owners_live = false;
            }
          }
        }
        if (!owners_live) {
          controller_usable[x] = 0;
          changed = true;
          note(support::format(
              "round %d: bram%d schedule cannot complete a round — a "
              "slot owner cannot move infinitely often under the freeze",
              round, model.controllers()[x].bram_id));
        }
      }
    }
  }
};

std::vector<BlockingStaticBound> reference_blocking_bounds(
    const verify::ProgramModel& model, bool explain) {
  std::vector<BlockingStaticBound> out;
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
          ctrl_states, static_cast<std::uint64_t>(std::max(cm.total_slots, 1)));
    }
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
      RefEndpoint ea{model, static_cast<int>(di), site.thread, explain, &b,
                     {},    {},                   {},          {},      {}};
      ea.run();
      int live_thread = -1;
      for (std::size_t t = 0; t < ea.live.size(); ++t) {
        if (ea.live[t]) live_thread = static_cast<int>(t);
      }
      if (live_thread >= 0) {
        b.note = support::format(
            "thread '%s' can cycle forever without ever enabling the "
            "read's guard (no op of '%s' on its cycle)",
            model.threads()[static_cast<std::size_t>(live_thread)]
                .name.c_str(),
            b.dep.c_str());
      } else {
        b.bounded = true;
        std::uint64_t steps = ctrl_states;
        for (std::size_t t = 0; t < model.threads().size(); ++t) {
          if (static_cast<int>(t) == site.thread) continue;
          steps = sat_mul(
              steps,
              static_cast<std::uint64_t>(
                  std::max<std::size_t>(model.threads()[t].nodes.size(), 1)));
        }
        b.steps = steps;
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
              b.thread.c_str(), static_cast<unsigned long long>(ctrl_states),
              b.saturated ? "saturated (2^64-1)"
                          : std::to_string(b.steps).c_str()));
        }
      }
      out.push_back(std::move(b));
    }
  }
  return out;
}

// --- comparison -----------------------------------------------------------

struct Source {
  std::string name;
  std::string text;
};

/// A hub thread that reads from n source threads and hands each value on
/// to its own sink: 2n distinct (kind, dep) inputs in one thread, so the
/// signature outgrows one 64-bit word past n = 32. A pair declared first
/// (zs -> zk) leaves every hub input usable while zk waits, so the hub's
/// all-usable signature and the ones that differ from it only past bit 63
/// (freezing e32 and up) must be told apart.
std::string hub_source(int n) {
  std::string src =
      "thread zs () {\n  int zx;\n  #consumer{z, [zk,zy]}\n  zx = f(0);\n}\n"
      "thread zk () {\n  int zy;\n  #producer{z, [zs,zx]}\n  zy = h(zx);\n}\n";
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    src += "thread s" + k + " () {\n  int x" + k + ";\n  #consumer{d" + k +
           ", [hub,y" + k + "]}\n  x" + k + " = f(" + k + ");\n}\n";
  }
  src += "thread hub () {\n  int ";
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    src += (i == 0 ? "" : ", ") + ("y" + k) + ", w" + k;
  }
  src += ";\n";
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    src += "  #producer{d" + k + ", [s" + k + ",x" + k + "]}\n  y" + k +
           " = g(x" + k + ");\n  #consumer{e" + k + ", [k" + k + ",z" + k +
           "]}\n  w" + k + " = g(y" + k + ");\n";
  }
  src += "}\n";
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    src += "thread k" + k + " () {\n  int z" + k + ";\n  #producer{e" + k +
           ", [hub,w" + k + "]}\n  z" + k + " = h(w" + k + ");\n}\n";
  }
  return src;
}

/// Most distinct (kind, dep) op inputs of any one thread.
std::size_t widest_signature(const verify::ProgramModel& model) {
  std::size_t widest = 0;
  for (const verify::ThreadModel& tm : model.threads()) {
    std::vector<std::pair<bool, int>> inputs;
    for (const verify::NodeModel& node : tm.nodes) {
      for (const SyncOp& op : node.ops) {
        const std::pair<bool, int> in{op.kind == SyncOp::Kind::Produce,
                                      op.dep};
        if (std::find(inputs.begin(), inputs.end(), in) == inputs.end()) {
          inputs.push_back(in);
        }
      }
    }
    widest = std::max(widest, inputs.size());
  }
  return widest;
}

std::vector<Source> corpus() {
  std::vector<Source> sources;
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(HICSYNC_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".hic") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  for (const auto& p : examples) {
    sources.push_back({p.filename().string(), read_file(p.string())});
  }
  sources.push_back(
      {"dead_dep.hic", read_file(bound_fixture_path("dead_dep.hic"))});
  // Unbounded endpoints and multi-round fixpoints.
  for (const char* f : {"producer_loop.hic", "triple_cycle.hic",
                        "ed_slot_order.hic"}) {
    sources.push_back({f, read_file(verify_fixture_path(f))});
  }
  for (const char* f :
       {"consume_before_produce.hic", "pragma_consumer_order.hic"}) {
    sources.push_back({f, read_file(lint_fixture_path(f))});
  }
  sources.push_back({"ip_forwarding", netapp::ip_forwarding_source()});
  sources.push_back({"hub40", hub_source(40)});
  for (int n = 1; n <= 64; ++n) {
    sources.push_back({"fanout" + std::to_string(n), netapp::fanout_source(n)});
  }
  return sources;
}

void expect_same(const std::vector<BlockingStaticBound>& want,
                 const std::vector<BlockingStaticBound>& got,
                 const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const BlockingStaticBound& w = want[i];
    const BlockingStaticBound& g = got[i];
    const std::string at = where + " endpoint " + std::to_string(i);
    EXPECT_EQ(w.dep, g.dep) << at;
    EXPECT_EQ(w.thread, g.thread) << at;
    EXPECT_EQ(w.consumer, g.consumer) << at;
    EXPECT_EQ(w.bounded, g.bounded) << at;
    EXPECT_EQ(w.steps, g.steps) << at;
    EXPECT_EQ(w.cycles, g.cycles) << at;
    EXPECT_EQ(w.saturated, g.saturated) << at;
    EXPECT_EQ(w.note, g.note) << at;
    EXPECT_EQ(w.provenance, g.provenance) << at;
  }
}

TEST(BoundBlocking, MatchesPerEndpointRecompute) {
  int unbounded = 0;
  int multi_round = 0;
  std::size_t widest = 0;
  for (const Source& s : corpus()) {
    auto c = compile_for_bound(s.text, s.name);
    ASSERT_TRUE(c->ok()) << s.name;
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      verify::ProgramModel model = verify::ProgramModel::build(
          c->program(), c->sema(), c->memory_map(), c->port_plans(), org);
      if (org == sim::OrgKind::Arbitrated) {
        widest = std::max(widest, widest_signature(model));
      }
      for (bool explain : {false, true}) {
        const std::string where = s.name + " " + memorg::to_string(org) +
                                  (explain ? " explain" : "");
        std::vector<BlockingStaticBound> want =
            reference_blocking_bounds(model, explain);
        expect_same(want, blocking_bounds(model, explain), where);
        for (const BlockingStaticBound& b : want) {
          unbounded += b.bounded ? 0 : 1;
          for (const std::string& line : b.provenance) {
            multi_round += line.rfind("round 2:", 0) == 0 ? 1 : 0;
          }
        }
      }
    }
  }
  // The corpus reaches the paths the memo has to keep apart.
  EXPECT_GT(unbounded, 0);
  EXPECT_GT(multi_round, 0);
  EXPECT_GT(widest, 64u);
}

}  // namespace
}  // namespace hicsync::bound
