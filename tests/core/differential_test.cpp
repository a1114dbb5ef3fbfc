// Differential test between the two memory organizations (§3.1 vs §3.2):
// the same program compiled for the arbitrated and the event-driven
// controllers must compute identical register values and complete the same
// dependency rounds with the same consumer sets — timing differs, the
// synchronization semantics must not. Runs on the shipped examples so the
// artifacts users see are the ones verified.
//
// Equivalence is decided by the hic-diff alignment engine: each run is
// captured on the trace bus and reduced to semantic streams (dependency
// rounds, FSM-state sequences), and a mismatch fails with the engine's
// first-divergence forensics record — which stream diverged, both keys,
// and a raw-event context window from each run — instead of a bare
// container assert.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "diffview/align.h"
#include "diffview/bundle.h"
#include "trace/bus.h"

#ifndef HICSYNC_EXAMPLES_DIR
#error "HICSYNC_EXAMPLES_DIR must point at the examples/ directory"
#endif

namespace hicsync::core {
namespace {

std::string read_source(const std::string& dir, const std::string& name) {
  std::ifstream in(dir + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_example(const std::string& name) {
  return read_source(HICSYNC_EXAMPLES_DIR, name);
}

std::string read_fixture(const std::string& name,
                         const std::string& suite = "verify") {
  return read_source(std::string(HICSYNC_EXAMPLES_DIR) + "/../tests/" +
                         suite + "/fixtures",
                     name);
}

struct RunOutcome {
  bool converged = false;
  std::uint64_t cycles = 0;
  // thread -> var -> final value.
  std::map<std::string, std::map<std::string, std::uint64_t>> regs;
  // Completed rounds as (dep, sorted consumer names), in completion order.
  std::vector<std::pair<std::string, std::vector<std::string>>> rounds;
  // Full trace capture, for the alignment engine.
  std::vector<diffview::CapturedEvent> events;
};

// Deterministic externs: value depends only on the function name and its
// arguments, so any cross-organization divergence is a controller bug.
void register_externs(sim::SystemSim& simulator,
                      const std::vector<std::string>& fns) {
  std::uint64_t salt = 1;
  for (const std::string& fn : fns) {
    const std::uint64_t k = salt++;
    simulator.externs().register_fn(
        fn, [k](const std::vector<std::uint64_t>& args) {
          std::uint64_t v = 1000 * k;
          for (std::uint64_t a : args) v = v * 31 + a;
          return v;
        });
  }
}

CompileOptions org_options(sim::OrgKind kind) {
  CompileOptions options;
  options.organization = kind;
  return options;
}

RunOutcome run(const std::string& source, const CompileOptions& options,
               const std::vector<std::string>& fns,
               const std::map<std::string, std::vector<std::string>>& vars,
               int passes, bool expect_converged = true,
               std::uint64_t max_cycles = 100000) {
  auto result = Compiler(options).compile(source);
  EXPECT_TRUE(result->ok()) << result->diags().str();
  auto simulator = result->make_simulator();
  register_externs(*simulator, fns);

  trace::TraceBus bus;
  diffview::BundleCaptureSink capture;
  bus.attach(&capture);
  simulator->set_trace(&bus);

  RunOutcome out;
  out.converged = simulator->run_until_passes(passes, max_cycles);
  out.cycles = simulator->cycle();
  bus.finish(out.cycles);
  if (expect_converged) {
    EXPECT_TRUE(out.converged) << simulator->stall_report();
  }
  for (const auto& [thread, names] : vars) {
    for (const std::string& var : names) {
      out.regs[thread][var] = simulator->register_value(thread, var);
    }
  }
  for (const auto& r : simulator->rounds()) {
    std::vector<std::string> consumers;
    for (const auto& [consumer, cycle] : r.consume_cycles) {
      consumers.push_back(consumer);
    }
    std::sort(consumers.begin(), consumers.end());
    out.rounds.emplace_back(r.dep_id, std::move(consumers));
  }
  out.events = capture.events();
  return out;
}

void expect_equivalent(const RunOutcome& arb, const RunOutcome& ev,
                       int passes) {
  // Identical final register values, thread by thread.
  EXPECT_EQ(arb.regs, ev.regs);

  // Semantic trace alignment. The simulation stops as soon as every
  // thread reaches `passes`, so activity past that point (a next round
  // caught mid-flight, the first states of a next pass) is timing, not
  // semantics — tail_insensitive drops it and caps each dependency at
  // its first `passes` completed rounds.
  diffview::AlignOptions options;
  options.tail_insensitive = true;
  options.rounds_per_dep = passes;
  const diffview::AlignResult aligned =
      diffview::align(arb.events, ev.events, options);
  EXPECT_TRUE(aligned.equivalent) << aligned.forensics_text();

  // Every dependency actually completed its `passes` rounds (the aligner
  // would also pass on two equally-empty captures).
  for (const diffview::Stream& s : diffview::extract_streams(arb.events)) {
    if (s.cls != diffview::StreamClass::DepRound) continue;
    int complete = 0;
    for (const diffview::KeyedEntry& e : s.entries) {
      if (e.key.find("(round incomplete)") == std::string::npos) ++complete;
    }
    EXPECT_GE(complete, passes) << s.id;
  }
}

TEST(DifferentialOrgTest, Fig1Example) {
  const std::string source = read_example("fig1.hic");
  // Only register variables are inspectable; x1 lives in the shared BRAM.
  const std::vector<std::string> fns = {"f", "g", "h"};
  const std::map<std::string, std::vector<std::string>> vars = {
      {"t2", {"y1"}}, {"t3", {"z1"}}};
  RunOutcome arb =
      run(source, org_options(sim::OrgKind::Arbitrated), fns, vars, 1);
  RunOutcome ev =
      run(source, org_options(sim::OrgKind::EventDriven), fns, vars, 1);
  expect_equivalent(arb, ev, 1);
  // The produced value actually flowed: consumers saw t1's x1.
  EXPECT_NE(arb.regs["t2"]["y1"], 0u);
  EXPECT_EQ(arb.rounds.front().first, "mt1");
}

TEST(DifferentialOrgTest, PipelineExample) {
  const std::string source = read_example("pipeline.hic");
  // hdr and meta are the produced (memory-resident) variables; the
  // register-resident consumers downstream expose the flowed values.
  const std::vector<std::string> fns = {"f", "g", "f2", "g2", "h2"};
  const std::map<std::string, std::vector<std::string>> vars = {
      {"parse", {"h"}}, {"act", {"m", "verdict"}}};
  RunOutcome arb =
      run(source, org_options(sim::OrgKind::Arbitrated), fns, vars, 1);
  RunOutcome ev =
      run(source, org_options(sim::OrgKind::EventDriven), fns, vars, 1);
  expect_equivalent(arb, ev, 1);
  // Both dependencies completed a round in both organizations.
  std::set<std::string> deps;
  for (const auto& [dep, consumers] : arb.rounds) deps.insert(dep);
  EXPECT_EQ(deps, (std::set<std::string>{"m_hdr", "m_meta"}));
}

// A seeded bug must not merely fail — it must produce a forensics record
// naming the first diverging stream with context from both runs. The
// ed_slot_order fixture diverges between the organizations on dependency
// d1's round sequence.
TEST(DifferentialOrgTest, SeededBugYieldsForensics) {
  const std::string source = read_fixture("ed_slot_order.hic");
  RunOutcome arb = run(source, org_options(sim::OrgKind::Arbitrated), {}, {}, 1,
                       /*expect_converged=*/false, /*max_cycles=*/2000);
  RunOutcome ev = run(source, org_options(sim::OrgKind::EventDriven), {}, {}, 1,
                      /*expect_converged=*/false, /*max_cycles=*/2000);
  const diffview::AlignResult aligned = diffview::align(arb.events, ev.events);
  ASSERT_FALSE(aligned.equivalent);
  ASSERT_NE(aligned.first(), nullptr);
  EXPECT_EQ(aligned.first()->stream, "dep/d1");

  const std::string forensics = aligned.forensics_text();
  EXPECT_NE(forensics.find("trace alignment: DIVERGED"), std::string::npos)
      << forensics;
  EXPECT_NE(forensics.find("first divergence: stream dep/d1"),
            std::string::npos)
      << forensics;
  // Both raw-event context windows made it into the record.
  EXPECT_NE(forensics.find("context A:"), std::string::npos) << forensics;
  EXPECT_NE(forensics.find("context B:"), std::string::npos) << forensics;
}

// The simulator runs the controller the compiler built, so the CAM-vs-scan
// ablation is simulated: the serial scan adds dependency-list lookup
// cycles and must never change a value.
TEST(DifferentialOrgTest, SerialScanComputesCamValuesInNoFewerCycles) {
  const std::string source = read_example("stress_shared.hic");
  const std::vector<std::string> fns = {"f", "f2", "f3", "g", "g2", "g3"};
  const std::map<std::string, std::vector<std::string>> vars = {
      {"q1", {"u1", "w1"}}, {"q2", {"u2", "s2"}}};
  CompileOptions scan = org_options(sim::OrgKind::Arbitrated);
  scan.use_cam = false;
  RunOutcome cam = run(source, org_options(sim::OrgKind::Arbitrated), fns,
                       vars, 3);
  RunOutcome serial = run(source, scan, fns, vars, 3);
  EXPECT_EQ(cam.regs, serial.regs);
  // At least as many cycles; strictly more here, because stress_shared
  // keeps three entries on one list.
  EXPECT_GT(serial.cycles, cam.cycles);
}

// hic-bound's sizing hint prunes the dead entry (and t3's pseudo-port)
// from the compiled controller, and the simulator runs that controller.
// Arbitrated: the dead entry is inert, so pruning changes no value.
// Event-driven: the unpruned schedule waits forever on the dead
// producer's slot; the pruned one completes.
TEST(DifferentialOrgTest, BoundSizingPrunesTheSimulatedController) {
  const std::string source = read_fixture("dead_dep.hic", "bound");
  const std::vector<std::string> fns = {"f", "f2", "g", "g3"};
  const std::map<std::string, std::vector<std::string>> vars = {
      {"t2", {"y1", "y2"}}, {"t3", {"z1", "m3"}}};
  for (sim::OrgKind kind :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    CompileOptions sized = org_options(kind);
    sized.bound.enabled = true;
    CompileOptions unsized = org_options(kind);
    const bool event_driven = kind == sim::OrgKind::EventDriven;
    RunOutcome pruned = run(source, sized, fns, vars, 2);
    RunOutcome kept = run(source, unsized, fns, vars, 2,
                          /*expect_converged=*/!event_driven,
                          /*max_cycles=*/event_driven ? 2000 : 100000);
    EXPECT_TRUE(pruned.converged) << sim::to_string(kind);
    if (event_driven) {
      EXPECT_FALSE(kept.converged);
    } else {
      EXPECT_EQ(pruned.regs, kept.regs);
    }
  }
}

}  // namespace
}  // namespace hicsync::core
