#include "verify/checker.h"

#include <algorithm>

#include "support/graph.h"
#include "support/json.h"
#include "support/strings.h"

namespace hicsync::verify {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Proved: return "proved";
    case Verdict::Refuted: return "refuted";
    case Verdict::Inconclusive: return "inconclusive";
  }
  return "?";
}

namespace {

/// Worst-case blocked streak for the consumer endpoint (`di`, `k`).
BlockingBound endpoint_bound(const ProgramModel& model, const Explorer& ex,
                             int di, int k) {
  const DepModel& dm = model.deps()[static_cast<std::size_t>(di)];
  const DepModel::ConsumeSite& site =
      dm.consume_sites[static_cast<std::size_t>(k)];
  BlockingBound b;
  b.dep = dm.dep->id;
  b.thread = site.thread >= 0
                 ? model.threads()[static_cast<std::size_t>(site.thread)].name
                 : "?";
  b.consumer = k;
  if (site.thread < 0 || site.node < 0) {
    b.bounded = true;
    return b;
  }
  const NodeModel& node = model.threads()[static_cast<std::size_t>(site.thread)]
                              .nodes[static_cast<std::size_t>(site.node)];

  // S_e: every reachable state where the consumer sits at its guarded
  // read. Edges inside S_e are moves of *other* threads (the consumer
  // leaving its node leaves the set), i.e. exactly the steps it can spend
  // blocked there.
  std::vector<std::int32_t> members;
  for (std::int32_t s = 0; s < static_cast<std::int32_t>(ex.num_states());
       ++s) {
    if (ex.pc(ex.state(s), site.thread) == site.node) members.push_back(s);
  }
  if (members.empty()) {
    b.bounded = true;
    return b;
  }

  // The subgraph induced by S_e over local ids (positions in `members`,
  // which is sorted), successors in Explorer order.
  support::Csr graph;
  for (const std::int32_t m : members) {
    for (const std::int32_t succ : ex.succs(m)) {
      auto it = std::lower_bound(members.begin(), members.end(), succ);
      if (it == members.end() || *it != succ) continue;  // leaves S_e
      graph.targets.push_back(static_cast<int>(it - members.begin()));
    }
    graph.offsets.push_back(static_cast<int>(graph.targets.size()));
  }
  const support::Scc scc = support::strongly_connected(graph);

  // A nontrivial SCC means other threads can cycle while the consumer
  // waits. If its read is never enabled anywhere in the cycle, only the
  // cycling threads' own termination would free it — unbounded under our
  // assumptions. If the read is enabled somewhere in the cycle, round-robin
  // fairness guarantees the grant within one arbitration window, so the
  // whole component contributes once.
  //
  // Longest path over the condensation DAG. Components come in reverse
  // topological order, so a single pass in that order sees every
  // successor's value first.
  std::vector<std::uint64_t> longest(static_cast<std::size_t>(scc.count()),
                                     0);
  b.bounded = true;
  std::uint64_t best = 0;
  for (int c = 0; c < scc.count(); ++c) {
    const std::span<const int> comp = scc.members(c);
    bool enabled_somewhere = false;
    std::uint64_t through = 0;
    for (const int v : comp) {
      const State& s = ex.state(members[static_cast<std::size_t>(v)]);
      bool enabled = true;
      for (const SyncOp& op : node.ops) {
        if (!ex.op_enabled(s, op)) enabled = false;
      }
      if (enabled) enabled_somewhere = true;
      for (const int w : graph.row(v)) {
        const int cw = scc.comp[static_cast<std::size_t>(w)];
        if (cw != c) {
          through = std::max(through, longest[static_cast<std::size_t>(cw)]);
        }
      }
    }
    const bool nontrivial = scc.cyclic(graph, c);
    if (nontrivial && !enabled_somewhere) {
      b.bounded = false;
      b.note = support::format(
          "other threads can loop forever while '%s' waits at its read of "
          "'%s' without the dependency ever becoming available (holds only "
          "if those loops terminate)",
          b.thread.c_str(), b.dep.c_str());
      return b;
    }
    // Weight: each state of the component is one abstract step another
    // thread can take while the consumer stays blocked; a fairness-exited
    // cycle contributes its state count once.
    const auto ci = static_cast<std::size_t>(c);
    longest[ci] = static_cast<std::uint64_t>(comp.size()) + through;
    if (nontrivial) b.fairness_cycle = true;
    best = std::max(best, longest[ci]);
  }
  b.steps = best;
  int window = dm.controller >= 0 ? model.fairness_window(dm.controller) : 1;
  b.cycles = (b.steps + 1) * (static_cast<std::uint64_t>(window) + 1);
  return b;
}

}  // namespace

bool VerifyResult::all_proved() const {
  if (deadlock_free != Verdict::Proved) return false;
  if (occupancy_ok != Verdict::Proved) return false;
  if (blocking_bounded == Verdict::Refuted ||
      blocking_bounded == Verdict::Inconclusive) {
    return false;
  }
  return complete;
}

VerifyResult run_verify(const hic::Program& program, const hic::Sema& sema,
                        const memalloc::MemoryMap& map,
                        const std::vector<memalloc::BramPortPlan>& plans,
                        sim::OrgKind organization,
                        const VerifyOptions& options) {
  VerifyResult r;
  r.organization = organization;

  ProgramModel model =
      ProgramModel::build(program, sema, map, plans, organization);
  ExploreOptions eo;
  eo.max_states = options.max_states;
  eo.max_depth = options.max_depth;
  eo.por = options.por;
  eo.build_graph = options.bounds;
  Explorer ex(model, eo);
  ex.run();

  r.complete = ex.complete();
  if (!r.complete) r.budget = verify::to_string(ex.budget());
  r.states = ex.num_states();
  r.transitions = ex.num_transitions();
  r.controllers = ex.controller_stats();

  // Property 1: deadlock-freedom.
  if (ex.deadlock_found()) {
    r.deadlock_free = Verdict::Refuted;
    r.has_cex = true;
    const Counterexample& cex = ex.deadlock();
    for (const Step& st : cex.steps) {
      r.cex.schedule.push_back(
          model.threads()[static_cast<std::size_t>(st.thread)].name);
    }
    for (const BlockedThread& bt : cex.blocked) {
      CexInfo::Blocked b;
      b.thread = model.threads()[static_cast<std::size_t>(bt.thread)].name;
      b.dep = model.deps()[static_cast<std::size_t>(bt.op.dep)].dep->id;
      b.kind = bt.op.kind;
      r.cex.blocked.push_back(std::move(b));
      // Property 2: a consumer stuck at its guarded read in an
      // unrecoverable state is a runtime consume-before-produce.
      if (bt.op.kind == SyncOp::Kind::Consume) {
        r.consume_before_produce.emplace_back(
            model.deps()[static_cast<std::size_t>(bt.op.dep)].dep->id,
            model.threads()[static_cast<std::size_t>(bt.thread)].name);
      }
    }
    r.cex.text = ex.render(cex);
  } else {
    r.deadlock_free = r.complete ? Verdict::Proved : Verdict::Inconclusive;
  }

  // Property 4: dependency-list occupancy vs the generated capacity.
  bool occupancy_violated = false;
  for (const ControllerStats& st : r.controllers) {
    if (organization == sim::OrgKind::Arbitrated) {
      if (st.max_occupancy > st.cam_capacity) occupancy_violated = true;
    } else if (st.max_slot >= st.total_slots && st.total_slots > 0) {
      occupancy_violated = true;
    }
  }
  r.occupancy_ok = occupancy_violated
                       ? Verdict::Refuted
                       : (r.complete ? Verdict::Proved : Verdict::Inconclusive);

  // Property 3: bounded blocking. Meaningless in the presence of a
  // deadlock (the deadlocked consumer blocks forever); needs the state
  // graph, so it is skipped when bounds are disabled.
  if (ex.deadlock_found()) {
    r.blocking_bounded = Verdict::Refuted;
  } else if (!options.bounds) {
    r.blocking_bounded = Verdict::Inconclusive;
  } else {
    bool all_bounded = true;
    for (std::size_t di = 0; di < model.deps().size(); ++di) {
      const DepModel& dm = model.deps()[di];
      for (std::size_t k = 0; k < dm.consume_sites.size(); ++k) {
        BlockingBound b = endpoint_bound(model, ex, static_cast<int>(di),
                                         static_cast<int>(k));
        all_bounded = all_bounded && b.bounded;
        r.bounds.push_back(std::move(b));
      }
    }
    r.blocking_bounded =
        !all_bounded ? Verdict::Refuted
                     : (r.complete ? Verdict::Proved : Verdict::Inconclusive);
  }

  return r;
}

std::size_t report_findings(const VerifyResult& result, const hic::Sema& sema,
                            support::DiagnosticEngine& diags) {
  std::size_t errors = 0;
  const char* org = sim::to_string(result.organization);

  if (result.deadlock_free == Verdict::Refuted) {
    support::SourceLoc loc;
    std::string detail;
    for (const CexInfo::Blocked& b : result.cex.blocked) {
      if (!loc.valid()) loc = sema.dependency_loc(b.dep, b.thread);
      if (!detail.empty()) detail += ", ";
      detail += support::format("'%s' %ss '%s'", b.thread.c_str(),
                                b.kind == SyncOp::Kind::Consume ? "consume"
                                                                : "produce",
                                b.dep.c_str());
    }
    diags.report(
        support::Severity::Error, loc,
        support::format("deadlock reachable under the %s organization in %zu "
                        "step(s): %s are all blocked (run with --replay for "
                        "the schedule)",
                        org, result.cex.schedule.size(), detail.c_str()),
        "verify-deadlock");
    ++errors;
  }
  for (const auto& [dep, thread] : result.consume_before_produce) {
    diags.report(
        support::Severity::Error, sema.dependency_loc(dep, thread),
        support::format("thread '%s' can reach its read of '%s' in a state "
                        "where the dependency can no longer be produced "
                        "(consume-before-produce at runtime, %s organization)",
                        thread.c_str(), dep.c_str(), org),
        "verify-consume-before-produce");
    ++errors;
  }
  if (result.occupancy_ok == Verdict::Refuted) {
    for (const ControllerStats& st : result.controllers) {
      bool bad = result.organization == sim::OrgKind::Arbitrated
                     ? st.max_occupancy > st.cam_capacity
                     : (st.total_slots > 0 && st.max_slot >= st.total_slots);
      if (!bad) continue;
      diags.report(
          support::Severity::Error, {},
          result.organization == sim::OrgKind::Arbitrated
              ? support::format(
                    "bram%d dependency list can hold %d simultaneously open "
                    "entries but the generated CAM has capacity %d",
                    st.bram_id, st.max_occupancy, st.cam_capacity)
              : support::format(
                    "bram%d schedule reaches slot %d but only %d slots exist",
                    st.bram_id, st.max_slot, st.total_slots),
          "verify-cam-occupancy");
      ++errors;
    }
  }
  for (const BlockingBound& b : result.bounds) {
    if (b.bounded) continue;
    diags.report(support::Severity::Warning,
                 sema.dependency_loc(b.dep, b.thread),
                 support::format("cannot bound the blocking of thread '%s' at "
                                 "its read of '%s' (%s organization): %s",
                                 b.thread.c_str(), b.dep.c_str(), org,
                                 b.note.c_str()),
                 "verify-blocking-unbounded");
  }
  if (!result.complete) {
    const char* which =
        result.budget.empty() ? "states" : result.budget.c_str();
    diags.report(
        support::Severity::Warning, {},
        support::format("%s budget exhausted after %llu states; unproved "
                        "properties are inconclusive, not proved "
                        "(%s organization; raise --max-%s, or fall back to "
                        "hic-bound for sound static occupancy and blocking "
                        "bounds)",
                        which,
                        static_cast<unsigned long long>(result.states), org,
                        which),
        "verify-inconclusive");
  }
  return errors;
}

std::string VerifyResult::text() const {
  std::string out;
  out += support::format(
      "verify: organization=%s states=%llu transitions=%llu%s%s%s\n",
      sim::to_string(organization), static_cast<unsigned long long>(states),
      static_cast<unsigned long long>(transitions),
      complete ? "" : " (", complete ? "" : budget.c_str(),
      complete ? "" : " budget exhausted)");
  out += support::format("  deadlock-freedom:        %s\n",
                         verify::to_string(deadlock_free));
  out += support::format("  consume-before-produce:  %s\n",
                         consume_before_produce.empty()
                             ? (deadlock_free == Verdict::Proved
                                    ? "proved absent"
                                    : verify::to_string(deadlock_free))
                             : "refuted");
  out += support::format("  bounded blocking:        %s\n",
                         verify::to_string(blocking_bounded));
  out += support::format("  cam occupancy:           %s\n",
                         verify::to_string(occupancy_ok));
  for (const ControllerStats& st : controllers) {
    if (organization == sim::OrgKind::Arbitrated) {
      out += support::format("  bram%d: max %d/%d dependency entries open\n",
                             st.bram_id, st.max_occupancy, st.cam_capacity);
    } else {
      out += support::format("  bram%d: slots reach %d of %d\n", st.bram_id,
                             st.max_slot, st.total_slots);
    }
  }
  for (const BlockingBound& b : bounds) {
    if (b.bounded) {
      out += support::format(
          "  blocking '%s' @ %s: <= %llu step(s), <= %llu cycle(s)%s\n",
          b.dep.c_str(), b.thread.c_str(),
          static_cast<unsigned long long>(b.steps),
          static_cast<unsigned long long>(b.cycles),
          b.fairness_cycle ? " (crosses a fairness-exited cycle)" : "");
    } else {
      out += support::format("  blocking '%s' @ %s: UNBOUNDED — %s\n",
                             b.dep.c_str(), b.thread.c_str(), b.note.c_str());
    }
  }
  if (has_cex) {
    out += "  counterexample (minimal schedule):\n";
    out += cex.text;
  }
  return out;
}

std::string VerifyResult::json() const {
  support::JsonWriter w;
  w.begin_object();
  w.key("organization").value(sim::to_string(organization));
  w.key("states").value(states);
  w.key("transitions").value(transitions);
  w.key("complete").value(complete);
  if (!complete) w.key("budget").value(budget);
  w.key("deadlock_free").value(verify::to_string(deadlock_free));
  w.key("blocking_bounded").value(verify::to_string(blocking_bounded));
  w.key("occupancy_ok").value(verify::to_string(occupancy_ok));
  w.key("consume_before_produce").begin_array();
  for (const auto& [dep, thread] : consume_before_produce) {
    w.begin_object();
    w.key("dep").value(dep);
    w.key("thread").value(thread);
    w.end_object();
  }
  w.end_array();
  w.key("controllers").begin_array();
  for (const ControllerStats& st : controllers) {
    w.begin_object();
    w.key("bram").value(st.bram_id);
    w.key("cam_capacity").value(st.cam_capacity);
    w.key("max_occupancy").value(st.max_occupancy);
    w.key("max_slot").value(st.max_slot);
    w.key("total_slots").value(st.total_slots);
    w.end_object();
  }
  w.end_array();
  w.key("bounds").begin_array();
  for (const BlockingBound& b : bounds) {
    w.begin_object();
    w.key("dep").value(b.dep);
    w.key("thread").value(b.thread);
    w.key("consumer").value(b.consumer);
    w.key("bounded").value(b.bounded);
    w.key("steps").value(b.steps);
    w.key("cycles").value(b.cycles);
    w.key("fairness_cycle").value(b.fairness_cycle);
    if (!b.note.empty()) w.key("note").value(b.note);
    w.end_object();
  }
  w.end_array();
  if (has_cex) {
    w.key("counterexample").begin_object();
    w.key("schedule").begin_array();
    for (const std::string& t : cex.schedule) w.value(t);
    w.end_array();
    w.key("blocked").begin_array();
    for (const CexInfo::Blocked& b : cex.blocked) {
      w.begin_object();
      w.key("thread").value(b.thread);
      w.key("dep").value(b.dep);
      w.key("op").value(verify::to_string(b.kind));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace hicsync::verify
