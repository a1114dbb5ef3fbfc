// Satellite test for hic-rt's pooled executors: SystemSim::reset() must
// return an instance to its post-construction state so the runtime can
// recycle simulators across sessions.  Every test here runs a workload on a
// recycled instance and compares the observable results — register values,
// cycle counts, and recorded rounds — against a freshly constructed
// simulator fed the same inputs.
#include "sim/system.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../hic/hic_test_util.h"
#include "memalloc/portplan.h"

namespace hicsync::sim {
namespace {

using hic::testing::compile;
using hic::testing::kFigure1;

struct World {
  std::unique_ptr<hic::testing::Compiled> c;
  memalloc::MemoryMap map;
  std::vector<synth::ThreadFsm> fsms;
  std::vector<memalloc::BramPortPlan> plans;
  rtl::Design design;
  std::vector<memorg::GeneratedController> controllers;
  std::unique_ptr<SystemSim> sim;
};

World make_world(const std::string& src, OrgKind kind,
                 bool restart = false) {
  World w;
  w.c = compile(src);
  EXPECT_TRUE(w.c->ok) << w.c->diags.str();
  w.map = memalloc::Allocator().allocate(*w.c->sema);
  for (const auto& t : w.c->program.threads) {
    w.fsms.push_back(synth::ThreadFsm::synthesize(t, *w.c->sema));
  }
  w.plans = memalloc::PortPlanner::plan(*w.c->sema, w.map, w.fsms);
  SystemOptions opt;
  opt.organization = kind;
  opt.restart_threads = restart;
  w.controllers =
      memorg::build_controllers(w.design, w.map, w.plans, {kind});
  w.sim = std::make_unique<SystemSim>(w.c->program, *w.c->sema, w.fsms,
                                      w.controllers, opt);
  return w;
}

// Everything a runtime client can observe from one figure-1 run.
struct Snapshot {
  std::uint64_t y1 = 0;
  std::uint64_t z1 = 0;
  std::uint64_t cycle = 0;
  std::size_t rounds = 0;
  std::uint64_t produce_grant = 0;

  bool operator==(const Snapshot& o) const {
    return y1 == o.y1 && z1 == o.z1 && cycle == o.cycle &&
           rounds == o.rounds && produce_grant == o.produce_grant;
  }
};

void seed_figure1(SystemSim& sim, std::uint64_t base) {
  sim.externs().register_fn(
      "f", [base](const auto&) { return base; });
  sim.externs().register_fn(
      "g", [](const auto& args) { return args.at(0) + 1; });
  sim.externs().register_fn(
      "h", [](const auto& args) { return args.at(0) + 2; });
}

Snapshot run_figure1(SystemSim& sim, std::uint64_t base) {
  seed_figure1(sim, base);
  EXPECT_TRUE(sim.run_until_passes(1, 300)) << "stalled, input " << base;
  Snapshot s;
  s.y1 = sim.register_value("t2", "y1");
  s.z1 = sim.register_value("t3", "z1");
  s.cycle = sim.cycle();
  s.rounds = sim.rounds().size();
  s.produce_grant = sim.rounds().empty()
                        ? 0
                        : sim.rounds().front().produce_grant_cycle;
  return s;
}

class ResetBothOrgs : public ::testing::TestWithParam<OrgKind> {};

TEST_P(ResetBothOrgs, RecycledRunMatchesFreshInstance) {
  // Run input A, reset, run input B — the second run on the recycled
  // simulator must be indistinguishable from a fresh instance running B.
  World recycled = make_world(kFigure1, GetParam());
  run_figure1(*recycled.sim, 1000);
  recycled.sim->reset();
  recycled.sim->externs().clear();
  Snapshot second = run_figure1(*recycled.sim, 2000);

  World fresh = make_world(kFigure1, GetParam());
  Snapshot baseline = run_figure1(*fresh.sim, 2000);

  EXPECT_EQ(second.y1, baseline.y1);
  EXPECT_EQ(second.z1, baseline.z1);
  EXPECT_EQ(second.cycle, baseline.cycle);
  EXPECT_EQ(second.rounds, baseline.rounds);
  EXPECT_EQ(second.produce_grant, baseline.produce_grant);
}

TEST_P(ResetBothOrgs, ManyBackToBackRunsStayDeterministic) {
  // The runtime reuses one simulator for a whole shard; N back-to-back
  // resets must each reproduce the fresh-instance result for that input.
  World recycled = make_world(kFigure1, GetParam());
  for (std::uint64_t i = 0; i < 6; ++i) {
    if (i > 0) {
      recycled.sim->reset();
      recycled.sim->externs().clear();
    }
    Snapshot got = run_figure1(*recycled.sim, 100 * (i + 1));
    World fresh = make_world(kFigure1, GetParam());
    Snapshot want = run_figure1(*fresh.sim, 100 * (i + 1));
    EXPECT_TRUE(got == want) << "iteration " << i;
  }
}

TEST_P(ResetBothOrgs, ResetClearsRoundsAndCycleCounter) {
  World w = make_world(kFigure1, GetParam());
  run_figure1(*w.sim, 7);
  ASSERT_GE(w.sim->rounds().size(), 1u);
  ASSERT_GT(w.sim->cycle(), 0u);
  w.sim->reset();
  EXPECT_EQ(w.sim->rounds().size(), 0u);
  EXPECT_EQ(w.sim->cycle(), 0u);
  EXPECT_EQ(w.sim->passes("t1"), 0);
  EXPECT_EQ(w.sim->passes("t2"), 0);
  EXPECT_EQ(w.sim->passes("t3"), 0);
}

TEST_P(ResetBothOrgs, StaleProducedValueDoesNotLeakAcrossReset) {
  // If reset failed to clear BRAM-side state, the consumer could observe
  // the previous session's produced value instead of the new one.
  World w = make_world(kFigure1, GetParam());
  Snapshot first = run_figure1(*w.sim, 5000);
  EXPECT_EQ(first.y1, 5001u);
  w.sim->reset();
  w.sim->externs().clear();
  Snapshot second = run_figure1(*w.sim, 8);
  EXPECT_EQ(second.y1, 9u);
  EXPECT_EQ(second.z1, 10u);
}

TEST_P(ResetBothOrgs, ResetWorksWithArraysAndLocalState) {
  // Array-backed local memory is BRAM-resident too; a recycled instance
  // must not see the previous run's table contents.
  const char* src = R"(
    thread t () {
      int tbl[8];
      int i, sum;
      for (i = 0; i < 4; i = i + 1) tbl[i] = base(i);
      sum = 0;
      for (i = 0; i < 4; i = i + 1) sum = sum + tbl[i];
    }
  )";
  World w = make_world(src, GetParam());
  w.sim->externs().register_fn(
      "base", [](const auto& args) { return args.at(0) * 10; });
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  EXPECT_EQ(w.sim->register_value("t", "sum"), 60u);  // 0+10+20+30

  w.sim->reset();
  w.sim->externs().clear();
  w.sim->externs().register_fn(
      "base", [](const auto& args) { return args.at(0) + 1; });
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  EXPECT_EQ(w.sim->register_value("t", "sum"), 10u);  // 1+2+3+4
}

INSTANTIATE_TEST_SUITE_P(Orgs, ResetBothOrgs,
                         ::testing::Values(OrgKind::Arbitrated,
                                           OrgKind::EventDriven),
                         [](const auto& info) {
                           return info.param == OrgKind::Arbitrated
                                      ? "Arbitrated"
                                      : "EventDriven";
                         });

TEST(SystemReset, MultiplePassesAfterResetMatchFresh) {
  // restart_threads mode: rounds keep accumulating; after reset the
  // recycled instance must replay the same multi-pass schedule.
  World recycled = make_world(kFigure1, OrgKind::EventDriven,
                              /*restart=*/true);
  seed_figure1(*recycled.sim, 11);
  ASSERT_TRUE(recycled.sim->run_until_passes(3, 2000));
  recycled.sim->reset();
  recycled.sim->externs().clear();
  seed_figure1(*recycled.sim, 11);
  ASSERT_TRUE(recycled.sim->run_until_passes(3, 2000));

  World fresh = make_world(kFigure1, OrgKind::EventDriven, /*restart=*/true);
  seed_figure1(*fresh.sim, 11);
  ASSERT_TRUE(fresh.sim->run_until_passes(3, 2000));

  EXPECT_EQ(recycled.sim->cycle(), fresh.sim->cycle());
  ASSERT_EQ(recycled.sim->rounds().size(), fresh.sim->rounds().size());
  for (std::size_t i = 0; i < fresh.sim->rounds().size(); ++i) {
    EXPECT_EQ(recycled.sim->rounds()[i].dep_id,
              fresh.sim->rounds()[i].dep_id)
        << "round " << i;
    EXPECT_EQ(recycled.sim->rounds()[i].produce_grant_cycle,
              fresh.sim->rounds()[i].produce_grant_cycle)
        << "round " << i;
  }
  EXPECT_EQ(recycled.sim->register_value("t2", "y1"),
            fresh.sim->register_value("t2", "y1"));
}

}  // namespace
}  // namespace hicsync::sim
