#include "verify/replay.h"

#include <map>

#include "diffview/align.h"
#include "diffview/bundle.h"
#include "sim/system.h"
#include "support/strings.h"
#include "trace/bus.h"

namespace hicsync::verify {

namespace {

/// Cycles between consecutive thread first-pass releases, used to bias
/// the simulator toward the counterexample's interleaving.
constexpr std::uint64_t kReleaseStagger = 25;

/// True when `thread`'s last observed trace-bus transition was into
/// blocked, on dependency `dep`. Replay confirms the counterexample's
/// blocked set both through the simulator's own diagnostics and through
/// the ThreadBlock/ThreadUnblock events of the capture.
bool trace_blocked_on(const std::vector<diffview::CapturedEvent>& events,
                      const std::string& thread, const std::string& dep) {
  int blocks = 0;
  int unblocks = 0;
  std::string last_dep;
  for (const diffview::CapturedEvent& e : events) {
    if (e.thread != thread) continue;
    if (e.kind == trace::EventKind::ThreadBlock) {
      ++blocks;
      last_dep = e.dep;
    } else if (e.kind == trace::EventKind::ThreadUnblock) {
      ++unblocks;
    }
  }
  return blocks > unblocks && last_dep == dep;
}

}  // namespace

ReplayResult replay(const hic::Program& program, const hic::Sema& sema,
                    const memalloc::MemoryMap& map,
                    const std::vector<memalloc::BramPortPlan>& plans,
                    const std::vector<synth::ThreadFsm>& fsms,
                    sim::OrgKind organization, const CexInfo& cex,
                    const ReplayOptions& options) {
  ReplayResult r;

  rtl::Design design;
  const std::vector<memorg::GeneratedController> controllers =
      memorg::build_controllers(design, map, plans, {organization});
  sim::SystemOptions so;
  so.organization = organization;
  so.restart_threads = true;
  sim::SystemSim sys(program, sema, fsms, controllers, so);

  trace::TraceBus bus;
  diffview::BundleCaptureSink capture;
  bus.attach(&capture);
  sys.set_trace(&bus);

  // Bias the simulator toward the counterexample interleaving: release
  // each thread's first pass in the order the thread first appears in the
  // schedule. Threads the schedule never moves start last — in the
  // abstract run they never got to act before the system wedged.
  std::vector<std::string> order;
  auto note = [&](const std::string& t) {
    for (const std::string& seen : order) {
      if (seen == t) return;
    }
    order.push_back(t);
  };
  for (const std::string& t : cex.schedule) note(t);
  for (const hic::ThreadDecl& t : program.threads) note(t.name);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::uint64_t release = kReleaseStagger * i;
    sys.set_gate(order[i], [release](std::uint64_t cycle) {
      return cycle >= release;
    });
  }

  bool converged = sys.run_until_passes(options.passes, options.max_cycles);
  bus.finish(sys.cycle());
  r.cycles = sys.cycle();
  const std::vector<diffview::CapturedEvent>& events = capture.events();

  if (converged) {
    r.report = support::format(
        "NOT reproduced: the %s simulation completed %d pass(es) per thread "
        "in %llu cycles — no deadlock",
        sim::to_string(organization), options.passes,
        static_cast<unsigned long long>(r.cycles));
    return r;
  }

  // The system wedged; confirm it wedged the way the checker predicted.
  // A mismatching thread gets a forensics tail — its last trace-bus
  // events — so the divergence between prediction and simulation is
  // inspectable, not just asserted.
  bool all_matched = !cex.blocked.empty();
  std::string detail;
  std::string forensics;
  for (const CexInfo::Blocked& b : cex.blocked) {
    bool sim_blocked = sys.is_blocked(b.thread);
    bool dep_matched = false;
    for (const sim::ThreadDiagnostic& d : sys.thread_diagnostics()) {
      if (d.thread != b.thread) continue;
      dep_matched = d.waiting_on.find("dep '" + b.dep + "'") !=
                    std::string::npos;
    }
    bool traced = trace_blocked_on(events, b.thread, b.dep);
    bool ok = sim_blocked && dep_matched && traced;
    all_matched = all_matched && ok;
    if (ok) r.blocked_threads.push_back(b.thread);
    detail += support::format(
        "  %-12s expected blocked on '%s': sim=%s dep=%s trace=%s\n",
        b.thread.c_str(), b.dep.c_str(), sim_blocked ? "blocked" : "free",
        dep_matched ? "match" : "MISMATCH", traced ? "blocked" : "free");
    if (!ok) {
      const std::string tail =
          diffview::render_thread_tail(events, b.thread, 8);
      forensics += support::format("  last trace events of %s:\n%s",
                                   b.thread.c_str(),
                                   tail.empty() ? "    (none)\n"
                                                : tail.c_str());
    }
  }

  r.reproduced = all_matched;
  r.report = support::format(
      "%s after %llu cycles (%s organization):\n",
      r.reproduced ? "REPRODUCED" : "not reproduced",
      static_cast<unsigned long long>(r.cycles),
      sim::to_string(organization));
  r.report += detail;
  if (!forensics.empty()) r.report += forensics;
  r.report += sys.stall_report();
  return r;
}

}  // namespace hicsync::verify
