// hic-bound end-to-end behavior: occupancy within capacity on the shipped
// examples, dead-dependency detection and the sizing-hint pruning loop,
// counter precision on straight-line threads, widening in loops, and the
// diagnostic surface (bound-* check IDs, exit-code mapping).
#include <gtest/gtest.h>

#include "bound/bound.h"
#include "bound_test_util.h"
#include "core/compiler.h"
#include "memalloc/sizing.h"

namespace hicsync::bound {
namespace {

using bound_test::bound_fixture_path;
using bound_test::bound_source;
using bound_test::compile_for_bound;
using bound_test::example_path;
using bound_test::read_file;

const char* kExamples[] = {"fig1.hic", "pipeline.hic", "stress8.hic",
                           "stress_shared.hic"};

// A fully dead dependency (tests/bound/fixtures/dead_dep.hic): its produce
// and its only consume site both sit after a `break`.
std::string dead_dep_source() {
  return read_file(bound_fixture_path("dead_dep.hic"));
}

// A sync-free thread cycles forever through the restart edge without ever
// touching the controller, so no consumer's blocking is statically (or
// exactly — hic-verify agrees) bounded.
const char* kFreeRunnerSource = R"(
thread t1 () {
  int x1, x2;
  #consumer{mt1, [t2,y1]}
  x1 = f(x2);
}
thread t2 () {
  int y1, y2;
  #producer{mt1, [t1,x1]}
  y1 = g(x1, y2);
}
thread spin () {
  int s;
  s = h(s);
}
)";

TEST(BoundTest, ShippedExamplesWithinCapacityAndBounded) {
  for (const char* name : kExamples) {
    auto c = compile_for_bound(read_file(example_path(name)), name);
    ASSERT_TRUE(c->ok()) << name;
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      BoundResult r = bound_source(*c, org);
      EXPECT_TRUE(r.all_within_capacity()) << name;
      // hic-verify proves every shipped example bounded-blocking under
      // both organizations (CheckerTest.ShippedExamplesAllProved); a
      // sound static analysis must not contradict a proof.
      EXPECT_TRUE(r.all_blocking_bounded()) << name << " " << r.text();
      EXPECT_GT(r.worklist_steps, 0u) << name;

      support::DiagnosticEngine diags;
      EXPECT_EQ(report_findings(r, c->sema(), diags), 0u) << name;
      EXPECT_FALSE(diags.has_check("bound-occupancy-exceeds-capacity"));
    }
  }
}

TEST(BoundTest, StraightLineCountersAreExact) {
  auto c = compile_for_bound(read_file(example_path("fig1.hic")), "fig1.hic");
  ASSERT_TRUE(c->ok());
  BoundResult r = bound_source(*c, sim::OrgKind::Arbitrated);
  ASSERT_EQ(r.occupancy.size(), 1u);
  const OccupancyBound& ob = r.occupancy[0];
  ASSERT_EQ(ob.deps.size(), 1u);
  // t1 produces mt1 exactly once per pass, on a straight-line path: the
  // solver should find [1, 1], not just "reachable".
  EXPECT_EQ(ob.deps[0].produces_per_pass, Interval::exact(1));
  EXPECT_FALSE(ob.deps[0].dead_produce);
  EXPECT_EQ(ob.occupancy, Interval::range(0, 1));
  EXPECT_TRUE(r.sizing_hints.empty());
}

TEST(BoundTest, LoopedProduceWidensToInfinity) {
  // The produce sits in a data-dependent loop: its per-pass count has no
  // finite upper bound, so widening must kick in (and the occupancy
  // contribution stays [0, 1] regardless).
  const char* src = R"(
thread t1 () {
  int x1, x2, n;
  while (n) {
    #consumer{mt1, [t2,y1]}
    x1 = f(x2);
    n = dec(n);
  }
}
thread t2 () {
  int y1, y2, m;
  while (m) {
    #producer{mt1, [t1,x1]}
    y1 = g(x1, y2);
    m = dec(m);
  }
}
)";
  auto c = compile_for_bound(src, "looped.hic");
  ASSERT_TRUE(c->ok());
  BoundResult r = bound_source(*c, sim::OrgKind::Arbitrated);
  ASSERT_EQ(r.occupancy.size(), 1u);
  ASSERT_EQ(r.occupancy[0].deps.size(), 1u);
  const DepBound& db = r.occupancy[0].deps[0];
  EXPECT_TRUE(r.widened);
  EXPECT_EQ(db.produces_per_pass.lo, 0u);
  EXPECT_EQ(db.produces_per_pass.hi, kInf);
  EXPECT_FALSE(db.dead_produce);
  EXPECT_EQ(r.occupancy[0].occupancy, Interval::range(0, 1));
}

TEST(BoundTest, DeadDependencyDetectedAndHinted) {
  auto c = compile_for_bound(dead_dep_source(), "dead_dep.hic");
  ASSERT_TRUE(c->ok());
  BoundResult r = bound_source(*c, sim::OrgKind::Arbitrated);

  const DepBound* dead = nullptr;
  const DepBound* live = nullptr;
  for (const OccupancyBound& ob : r.occupancy) {
    for (const DepBound& db : ob.deps) {
      if (db.id == "dead") dead = &db;
      if (db.id == "live") live = &db;
    }
  }
  ASSERT_NE(dead, nullptr);
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(dead->fully_dead);
  EXPECT_TRUE(dead->dead_produce);
  EXPECT_EQ(dead->countdown, Interval::exact(0));
  EXPECT_FALSE(live->fully_dead);

  ASSERT_FALSE(r.sizing_hints.empty());
  const memalloc::DepListHint& hint = r.sizing_hints.front();
  EXPECT_TRUE(hint.shrinks());
  ASSERT_EQ(hint.dead_deps.size(), 1u);
  EXPECT_EQ(hint.dead_deps[0], "dead");

  // t3 consumes only the dead dependency — its pseudo-port is dead and
  // prunable.
  bool t3_dead_port = false;
  for (const DeadPortReport& rep : r.dead_ports) {
    for (const DeadPort& dp : rep.dead) {
      if (dp.thread == "t3") {
        t3_dead_port = true;
        EXPECT_TRUE(dp.prunable);
      }
    }
    EXPECT_GT(rep.ff_bits_saved, 0u);
  }
  EXPECT_TRUE(t3_dead_port);

  support::DiagnosticEngine diags;
  EXPECT_EQ(report_findings(r, c->sema(), diags), 0u);
  EXPECT_TRUE(diags.has_check("bound-dead-dependency"));
  EXPECT_TRUE(diags.has_check("bound-dead-port"));
}

TEST(BoundTest, SizingHintPrunesGeneratedController) {
  // Full compile with the bound phase enabled: the dead entry (and t3's
  // dead pseudo-port) must disappear from the generated controller, and
  // compiling without the bound phase must leave it untouched.
  core::CompileOptions with;
  with.bound.enabled = true;
  core::Compiler pruning(with);
  auto pruned = pruning.compile(dead_dep_source());
  ASSERT_TRUE(pruned->ok()) << pruned->diags().str();
  ASSERT_FALSE(pruned->bram_reports().empty());

  core::Compiler keeping{core::CompileOptions{}};
  auto kept = keeping.compile(dead_dep_source());
  ASSERT_TRUE(kept->ok()) << kept->diags().str();

  int pruned_deps = 0;
  int pruned_ports = 0;
  for (const core::BramReport& br : pruned->bram_reports()) {
    pruned_deps += br.pruned_deps;
    pruned_ports += br.pruned_ports;
  }
  EXPECT_EQ(pruned_deps, 1);
  EXPECT_GE(pruned_ports, 1);
  for (const core::BramReport& br : kept->bram_reports()) {
    EXPECT_EQ(br.pruned_deps, 0);
    EXPECT_EQ(br.pruned_ports, 0);
  }

  // The pruned controller carries fewer dependency entries than the kept
  // one on the BRAM that hosted the dead entry, and still emits RTL.
  int dead_bram = -1;
  for (const auto& r : pruned->bound_results()) {
    for (const memalloc::DepListHint& h : r.sizing_hints) {
      if (!h.dead_deps.empty()) dead_bram = h.bram_id;
    }
  }
  ASSERT_GE(dead_bram, 0);
  auto deps_of = [&](const core::CompileResult& c) {
    for (const core::BramReport& br : c.bram_reports()) {
      if (br.bram_id == dead_bram) return br.dependencies;
    }
    return -1;
  };
  EXPECT_EQ(deps_of(*pruned) + 1, deps_of(*kept));
  EXPECT_FALSE(pruned->verilog().empty());
}

TEST(BoundTest, FreeRunningThreadMakesBlockingUnbounded) {
  auto c = compile_for_bound(kFreeRunnerSource, "free_runner.hic");
  ASSERT_TRUE(c->ok());
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    BoundResult r = bound_source(*c, org);
    EXPECT_FALSE(r.all_blocking_bounded());
    for (const BlockingStaticBound& b : r.blocking) {
      EXPECT_FALSE(b.bounded);
      EXPECT_NE(b.note.find("spin"), std::string::npos) << b.note;
    }
    support::DiagnosticEngine diags;
    EXPECT_EQ(report_findings(r, c->sema(), diags), 0u);
    EXPECT_TRUE(diags.has_check("bound-blocking-unbounded"));
  }
}

TEST(BoundTest, ExceededOccupancyIsAnError) {
  // The occupancy client can only report what memalloc generated, and the
  // allocator always sizes the CAM to the dependency count — so exercise
  // the diagnostic path directly with a result whose bound exceeds the
  // baked-in capacity.
  auto c = compile_for_bound(read_file(example_path("fig1.hic")), "fig1.hic");
  ASSERT_TRUE(c->ok());
  BoundResult r = bound_source(*c, sim::OrgKind::Arbitrated);
  ASSERT_FALSE(r.occupancy.empty());
  r.occupancy[0].capacity = 0;  // pretend the generator under-provisioned

  support::DiagnosticEngine diags;
  EXPECT_EQ(report_findings(r, c->sema(), diags), 1u);
  EXPECT_TRUE(diags.has_check("bound-occupancy-exceeds-capacity"));
  EXPECT_FALSE(r.all_within_capacity());
}

TEST(BoundTest, ExplainCollectsProvenance) {
  auto c = compile_for_bound(read_file(example_path("fig1.hic")), "fig1.hic");
  ASSERT_TRUE(c->ok());
  BoundOptions opts;
  opts.explain = true;
  BoundResult r = bound_source(*c, sim::OrgKind::Arbitrated, opts);
  std::string ex = r.explain_text();
  EXPECT_NE(ex.find("per pass"), std::string::npos) << ex;
  EXPECT_NE(ex.find("countdown"), std::string::npos) << ex;
  // Without --explain the traces are empty (they cost allocations).
  BoundResult quiet = bound_source(*c, sim::OrgKind::Arbitrated);
  EXPECT_TRUE(quiet.explain_text().empty());
}

}  // namespace
}  // namespace hicsync::bound
