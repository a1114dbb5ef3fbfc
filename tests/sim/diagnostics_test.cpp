// Timeout/deadlock diagnostics: when run_until_passes gives up, the
// simulator must say which thread is stuck, in which FSM state, and what
// dependency/port it is waiting on.

#include <gtest/gtest.h>

#include "../hic/hic_test_util.h"
#include "memalloc/portplan.h"
#include "sim/system.h"

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

World make_world(const std::string& src, OrgKind kind) {
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
  opt.restart_threads = false;
  w.controllers =
      memorg::build_controllers(w.design, w.map, w.plans, {kind});
  w.sim = std::make_unique<SystemSim>(w.c->program, *w.c->sema, w.fsms,
                                      w.controllers, opt);
  return w;
}

class DeadlockDiagnostics : public ::testing::TestWithParam<OrgKind> {};

TEST_P(DeadlockDiagnostics, GatedProducerLeavesConsumersBlocked) {
  World w = make_world(kFigure1, GetParam());
  // The producer never runs: t2/t3's consumer reads of mt1 can never be
  // satisfied — a deadlock by construction.
  w.sim->set_gate("t1", [](std::uint64_t) { return false; });

  ASSERT_FALSE(w.sim->run_until_passes(1, 500));

  auto diags = w.sim->thread_diagnostics();
  ASSERT_EQ(diags.size(), 3u);

  const ThreadDiagnostic* t1 = nullptr;
  const ThreadDiagnostic* t2 = nullptr;
  for (const auto& d : diags) {
    if (d.thread == "t1") t1 = &d;
    if (d.thread == "t2") t2 = &d;
  }
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);

  EXPECT_EQ(t1->mode, "gated");
  EXPECT_EQ(t1->passes, 0);
  EXPECT_FALSE(t1->blocked);

  EXPECT_TRUE(t2->blocked);
  EXPECT_EQ(t2->mode, "fetch");
  EXPECT_GE(t2->fsm_state, 0);
  // The wait description names the dependency, the role and the port.
  EXPECT_NE(t2->waiting_on.find("mt1"), std::string::npos)
      << t2->waiting_on;
  EXPECT_NE(t2->waiting_on.find("consumer read"), std::string::npos)
      << t2->waiting_on;
  EXPECT_NE(t2->waiting_on.find("bram0"), std::string::npos)
      << t2->waiting_on;

  const std::string report = w.sim->stall_report();
  EXPECT_NE(report.find("t2"), std::string::npos);
  EXPECT_NE(report.find("t3"), std::string::npos);
  EXPECT_NE(report.find("mt1"), std::string::npos);
  EXPECT_NE(report.find("BLOCKED"), std::string::npos);
}

TEST_P(DeadlockDiagnostics, HealthyRunReportsNoBlockedThreads) {
  World w = make_world(kFigure1, GetParam());
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  for (const auto& d : w.sim->thread_diagnostics()) {
    EXPECT_FALSE(d.blocked) << d.thread << ": " << d.waiting_on;
    EXPECT_GE(d.passes, 1) << d.thread;
  }
  EXPECT_EQ(w.sim->stall_report().find("BLOCKED"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(BothOrgs, DeadlockDiagnostics,
                         ::testing::Values(OrgKind::Arbitrated,
                                           OrgKind::EventDriven));

}  // namespace
}  // namespace hicsync::sim
