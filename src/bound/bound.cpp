#include "bound/bound.h"

#include "support/json.h"
#include "support/strings.h"

namespace hicsync::bound {

bool BoundResult::all_within_capacity() const {
  for (const OccupancyBound& ob : occupancy) {
    if (organization == sim::OrgKind::Arbitrated) {
      if (ob.occupancy.hi > static_cast<std::uint64_t>(ob.capacity)) {
        return false;
      }
    } else if (ob.total_slots > 0 &&
               ob.slot.hi >= static_cast<std::uint64_t>(ob.total_slots)) {
      return false;
    }
  }
  return true;
}

bool BoundResult::all_blocking_bounded() const {
  for (const BlockingStaticBound& b : blocking) {
    if (!b.bounded) return false;
  }
  return true;
}

BoundResult run_bound(const hic::Program& program, const hic::Sema& sema,
                      const memalloc::MemoryMap& map,
                      const std::vector<memalloc::BramPortPlan>& plans,
                      sim::OrgKind organization,
                      const BoundOptions& options) {
  BoundResult r;
  r.organization = organization;

  verify::ProgramModel model =
      verify::ProgramModel::build(program, sema, map, plans, organization);

  std::vector<ThreadCounters> counters = count_sync_ops(model);
  for (const ThreadCounters& tc : counters) {
    r.worklist_steps += tc.worklist_steps;
    r.widened = r.widened || tc.widened;
  }

  OccupancyResult occ = occupancy_bounds(model, counters, options.explain);
  r.occupancy = std::move(occ.controllers);
  r.sizing_hints = std::move(occ.hints);

  r.blocking = blocking_bounds(model, options.explain, &r.cycle_scans);
  r.dead_ports = dead_ports(model, plans, counters);
  return r;
}

std::size_t report_findings(const BoundResult& result, const hic::Sema& sema,
                            support::DiagnosticEngine& diags) {
  std::size_t errors = 0;
  const char* org = sim::to_string(result.organization);

  for (const OccupancyBound& ob : result.occupancy) {
    bool exceeded =
        result.organization == sim::OrgKind::Arbitrated
            ? ob.occupancy.hi > static_cast<std::uint64_t>(ob.capacity)
            : (ob.total_slots > 0 &&
               ob.slot.hi >= static_cast<std::uint64_t>(ob.total_slots));
    if (exceeded) {
      diags.report(
          support::Severity::Error, {},
          result.organization == sim::OrgKind::Arbitrated
              ? support::format(
                    "bram%d dependency-list occupancy bound %s exceeds the "
                    "generated CAM capacity %d (%s organization)",
                    ob.bram_id, ob.occupancy.str().c_str(), ob.capacity, org)
              : support::format(
                    "bram%d slot bound %s exceeds the schedule length %d "
                    "(%s organization)",
                    ob.bram_id, ob.slot.str().c_str(), ob.total_slots, org),
          "bound-occupancy-exceeds-capacity");
      ++errors;
    }
    for (const DepBound& db : ob.deps) {
      if (!db.fully_dead) continue;
      diags.report(
          support::Severity::Warning, sema.dependency_loc(db.id),
          support::format(
              "dependency '%s' is dead code: no produce or consume of it is "
              "reachable; its bram%d list entry is removable (sizing hint)",
              db.id.c_str(), ob.bram_id),
          "bound-dead-dependency");
    }
  }

  for (const BlockingStaticBound& b : result.blocking) {
    if (b.bounded) continue;
    diags.report(
        support::Severity::Warning, sema.dependency_loc(b.dep, b.thread),
        support::format("cannot statically bound the blocking of thread "
                        "'%s' at its read of '%s' (%s organization): %s",
                        b.thread.c_str(), b.dep.c_str(), org, b.note.c_str()),
        "bound-blocking-unbounded");
  }

  for (const DeadPortReport& rep : result.dead_ports) {
    for (const DeadPort& dp : rep.dead) {
      diags.report(support::Severity::Warning, {}, dp.note,
                   "bound-dead-port");
    }
  }
  return errors;
}

std::string BoundResult::text() const {
  std::string out;
  out += support::format(
      "bound: organization=%s worklist_steps=%llu%s\n",
      sim::to_string(organization),
      static_cast<unsigned long long>(worklist_steps),
      widened ? " (widened)" : "");
  for (const OccupancyBound& ob : occupancy) {
    if (organization == sim::OrgKind::Arbitrated) {
      out += support::format(
          "  bram%d: occupancy %s of capacity %d%s\n", ob.bram_id,
          ob.occupancy.str().c_str(), ob.capacity,
          ob.occupancy.hi <= static_cast<std::uint64_t>(ob.capacity)
              ? ""
              : " EXCEEDED");
    } else {
      out += support::format("  bram%d: slot %s of %d slot(s)\n", ob.bram_id,
                             ob.slot.str().c_str(), ob.total_slots);
    }
    for (const DepBound& db : ob.deps) {
      if (db.fully_dead) {
        out += support::format("    dep '%s': dead (entry removable)\n",
                               db.id.c_str());
      } else if (db.dead_produce) {
        out += support::format(
            "    dep '%s': no reachable produce (consumers would block)\n",
            db.id.c_str());
      }
    }
  }
  for (const BlockingStaticBound& b : blocking) {
    if (b.bounded) {
      if (b.saturated) {
        out += support::format(
            "  blocking '%s' @ %s: bounded (bound saturates 64 bits)\n",
            b.dep.c_str(), b.thread.c_str());
      } else {
        out += support::format(
            "  blocking '%s' @ %s: <= %llu step(s), <= %llu cycle(s)\n",
            b.dep.c_str(), b.thread.c_str(),
            static_cast<unsigned long long>(b.steps),
            static_cast<unsigned long long>(b.cycles));
      }
    } else {
      out += support::format("  blocking '%s' @ %s: UNBOUNDED (static) — %s\n",
                             b.dep.c_str(), b.thread.c_str(), b.note.c_str());
    }
  }
  for (const DeadPortReport& rep : dead_ports) {
    out += support::format(
        "  bram%d ports: %d/%d consumer, %d/%d producer live; ~%llu FF "
        "bit(s) removable\n",
        rep.bram_id, rep.live_consumer_ports, rep.planned_consumer_ports,
        rep.live_producer_ports, rep.planned_producer_ports,
        static_cast<unsigned long long>(rep.ff_bits_saved));
  }
  for (const memalloc::DepListHint& h : sizing_hints) {
    out += support::format(
        "  sizing hint: bram%d list %d -> occupancy hi %d, %zu dead "
        "entr%s\n",
        h.bram_id, h.capacity, h.occupancy_hi, h.dead_deps.size(),
        h.dead_deps.size() == 1 ? "y" : "ies");
  }
  return out;
}

std::string BoundResult::json() const {
  support::JsonWriter w;
  w.begin_object();
  w.key("organization").value(sim::to_string(organization));
  w.key("worklist_steps").value(worklist_steps);
  w.key("widened").value(widened);
  w.key("within_capacity").value(all_within_capacity());
  w.key("controllers").begin_array();
  for (const OccupancyBound& ob : occupancy) {
    w.begin_object();
    w.key("bram").value(ob.bram_id);
    w.key("cam_capacity").value(ob.capacity);
    w.key("occupancy_lo").value(ob.occupancy.lo);
    w.key("occupancy_hi").value(ob.occupancy.hi);
    w.key("slot_hi").value(ob.slot.hi);
    w.key("total_slots").value(ob.total_slots);
    w.key("deps").begin_array();
    for (const DepBound& db : ob.deps) {
      w.begin_object();
      w.key("dep").value(db.id);
      w.key("dead_produce").value(db.dead_produce);
      w.key("fully_dead").value(db.fully_dead);
      w.key("countdown_lo").value(db.countdown.lo);
      w.key("countdown_hi").value(db.countdown.hi);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("blocking").begin_array();
  for (const BlockingStaticBound& b : blocking) {
    w.begin_object();
    w.key("dep").value(b.dep);
    w.key("thread").value(b.thread);
    w.key("consumer").value(b.consumer);
    w.key("bounded").value(b.bounded);
    w.key("steps").value(b.steps);
    w.key("cycles").value(b.cycles);
    w.key("saturated").value(b.saturated);
    if (!b.note.empty()) w.key("note").value(b.note);
    w.end_object();
  }
  w.end_array();
  w.key("dead_ports").begin_array();
  for (const DeadPortReport& rep : dead_ports) {
    w.begin_object();
    w.key("bram").value(rep.bram_id);
    w.key("planned_consumer_ports").value(rep.planned_consumer_ports);
    w.key("live_consumer_ports").value(rep.live_consumer_ports);
    w.key("planned_producer_ports").value(rep.planned_producer_ports);
    w.key("live_producer_ports").value(rep.live_producer_ports);
    w.key("ff_bits_saved").value(rep.ff_bits_saved);
    w.key("ports").begin_array();
    for (const DeadPort& dp : rep.dead) {
      w.begin_object();
      w.key("thread").value(dp.thread);
      w.key("port").value(memalloc::to_string(dp.port));
      w.key("pseudo_port").value(dp.pseudo_port);
      w.key("prunable").value(dp.prunable);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("sizing_hints").begin_array();
  for (const memalloc::DepListHint& h : sizing_hints) {
    w.begin_object();
    w.key("bram").value(h.bram_id);
    w.key("capacity").value(h.capacity);
    w.key("occupancy_hi").value(h.occupancy_hi);
    w.key("dead_deps").begin_array();
    for (const std::string& d : h.dead_deps) w.value(d);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string BoundResult::explain_text() const {
  std::string out;
  for (const OccupancyBound& ob : occupancy) {
    for (const DepBound& db : ob.deps) {
      if (db.provenance.empty()) continue;
      out += support::format("bram%d dep '%s':\n", ob.bram_id,
                             db.id.c_str());
      for (const std::string& line : db.provenance) {
        out += "  " + line + "\n";
      }
    }
  }
  for (const BlockingStaticBound& b : blocking) {
    if (b.provenance.empty()) continue;
    out += support::format("blocking '%s' @ %s:\n", b.dep.c_str(),
                           b.thread.c_str());
    for (const std::string& line : b.provenance) {
      out += "  " + line + "\n";
    }
  }
  return out;
}

}  // namespace hicsync::bound
