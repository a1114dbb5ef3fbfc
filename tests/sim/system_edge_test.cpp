// Edge cases of the system simulator: the message type end to end, port A
// contention between threads, permanently-gated producers, and blocked
// consumer behaviour.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../hic/hic_test_util.h"
#include "memalloc/portplan.h"
#include "sim/system.h"

namespace hicsync::sim {
namespace {

using hic::testing::compile;

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

TEST(SystemSimEdge, MessageTypeFlowsThroughDependency) {
  // The paper's model: a `message` (packet handle in the tub) produced by a
  // receiving thread and consumed by a computing thread.
  const char* src = R"(
    thread rx () {
      message pkt;
      #consumer{m, [work,job]}
      pkt = recv();
    }
    thread work () {
      message job;
      #producer{m, [rx,pkt]}
      job = pkt;
    }
  )";
  World w = make_world(src, OrgKind::Arbitrated);
  w.sim->externs().register_fn("recv", [](const auto&) { return 0xABCDu; });
  ASSERT_TRUE(w.sim->run_until_passes(1, 300));
  EXPECT_EQ(w.sim->register_value("work", "job"), 0xABCDu);
}

TEST(SystemSimEdge, PortAContentionBetweenThreads) {
  // Two threads hammer arrays placed in the same BRAM: the host-side port A
  // sharing must serialize them without losing accesses.
  const char* src = R"(
    thread p () {
      int buf[8];
      int i, acc, ready;
      #consumer{m, [q,go]}
      ready = 1;
      for (i = 0; i < 8; i = i + 1) buf[i] = i * 3;
      acc = 0;
      for (i = 0; i < 8; i = i + 1) acc = acc + buf[i];
    }
    thread q () {
      int other[8];
      int j, sum, go;
      #producer{m, [p,ready]}
      go = ready;
      for (j = 0; j < 8; j = j + 1) other[j] = j + 1;
      sum = 0;
      for (j = 0; j < 8; j = j + 1) sum = sum + other[j];
    }
  )";
  World w = make_world(src, OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 5000)) << w.sim->cycle();
  EXPECT_EQ(w.sim->register_value("p", "acc"), 84u);   // 3*(0+..+7)
  EXPECT_EQ(w.sim->register_value("q", "sum"), 36u);   // 1+..+8
  EXPECT_EQ(w.sim->register_value("q", "go"), 1u);
}

TEST(SystemSimEdge, PermanentlyGatedProducerBlocksConsumersForever) {
  World w = make_world(hic::testing::kFigure1, OrgKind::Arbitrated);
  w.sim->set_gate("t1", [](std::uint64_t) { return false; });
  for (int i = 0; i < 200; ++i) w.sim->step();
  EXPECT_EQ(w.sim->passes("t1"), 0);
  EXPECT_EQ(w.sim->passes("t2"), 0);
  EXPECT_TRUE(w.sim->is_blocked("t2"));
  EXPECT_TRUE(w.sim->is_blocked("t3"));
  EXPECT_TRUE(w.sim->rounds().empty());
}

TEST(SystemSimEdge, NoRestartMeansExactlyOnePass) {
  World w = make_world(hic::testing::kFigure1, OrgKind::Arbitrated,
                       /*restart=*/false);
  ASSERT_TRUE(w.sim->run_until_passes(1, 300));
  std::uint64_t at_one = w.sim->cycle();
  for (int i = 0; i < 100; ++i) w.sim->step();
  EXPECT_EQ(w.sim->passes("t1"), 1);
  EXPECT_EQ(w.sim->passes("t2"), 1);
  EXPECT_EQ(w.sim->rounds().size(), 1u);
  (void)at_one;
}

TEST(SystemSimEdge, WhileLoopWithBlockingReadInside) {
  // A consumer that reads the shared variable inside a loop body — each
  // iteration's read must block on a fresh produce.
  const char* src = R"(
    thread p () {
      int v;
      #consumer{m, [c,acc]}
      v = next();
    }
    thread c () {
      int acc, i;
      acc = 0;
      for (i = 0; i < 3; i = i + 1) {
        #producer{m, [p,v]}
        acc = acc + v;
      }
    }
  )";
  World w = make_world(src, OrgKind::Arbitrated, /*restart=*/true);
  int calls = 0;
  w.sim->externs().register_fn("next", [&calls](const auto&) {
    return static_cast<std::uint64_t>(10 * ++calls);
  });
  ASSERT_TRUE(w.sim->run_until_passes(1, 2000));
  // Three produces consumed: 10 + 20 + 30.
  EXPECT_EQ(w.sim->register_value("c", "acc"), 60u);
}

TEST(SystemSimEdge, EventDrivenMessagePipelineChain) {
  // rx -> fwd -> tx chain through two dependencies, event-driven.
  const char* src = R"(
    thread rx () {
      message pkt;
      #consumer{in, [fwd,wp]}
      pkt = recv();
    }
    thread fwd () {
      message wp, outp;
      #producer{in, [rx,pkt]}
      wp = pkt;
      #consumer{out, [tx,tp]}
      outp = wp;
    }
    thread tx () {
      message tp;
      #producer{out, [fwd,outp]}
      tp = outp;
    }
  )";
  World w = make_world(src, OrgKind::EventDriven);
  w.sim->externs().register_fn("recv", [](const auto&) { return 0x77u; });
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  EXPECT_EQ(w.sim->register_value("tx", "tp"), 0x77u);
}

TEST(SystemSimEdge, BranchConditionReadsArrayThroughPortA) {
  const char* src = R"(
    thread t () {
      int tbl[4];
      int x;
      tbl[2] = 5;
      if (tbl[2] == 5) x = 1; else x = 2;
    }
  )";
  World w = make_world(src, OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  EXPECT_EQ(w.sim->register_value("t", "x"), 1u);
}

TEST(SystemSimEdge, UnionMemberThroughRegisters) {
  const char* src = R"(
    union word {
      bits<16> half;
      int full;
    }
    thread t () {
      word w;
      int x;
      w.full = 70000;
      x = w.half;
    }
  )";
  World w = make_world(src, OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 200));
  // 70000 = 0x11170; the 16-bit member view masks to 0x1170.
  EXPECT_EQ(w.sim->register_value("t", "x"), 70000u & 0xFFFFu);
}

TEST(SystemSimEdge, EventDrivenSlotIsCurrentAfterEdgeOnly) {
  // SystemSim ends each cycle with rtl::ModuleSim::step_edge(), leaving
  // the controller's combinational nets stale, and reads the event-driven
  // `slot` before the next cycle's settle. That is sound because `slot` is
  // an output register: committed by the edge itself. Two instances of
  // the compiled controller, one stepped and one edge-stepped, agree on
  // it every cycle while the schedule walks through its slots.
  World w = make_world(hic::testing::kFigure1, OrgKind::EventDriven);
  ASSERT_EQ(w.controllers.size(), 1u);
  const rtl::Module& module = *w.controllers[0].module;
  rtl::ModuleSim stepped(module);
  rtl::ModuleSim edged(module);
  stepped.reset();
  edged.reset();
  const int slot = stepped.find_net("slot");
  ASSERT_EQ(module.net(slot).kind, rtl::NetKind::Reg);
  // The producer and every consumer request in turn, so the schedule
  // keeps moving.
  std::vector<int> reqs;
  for (int j = 0; j < w.plans[0].producer_pseudo_ports(); ++j) {
    reqs.push_back(stepped.find_net("p_req" + std::to_string(j)));
  }
  for (int i = 0; i < w.plans[0].consumer_pseudo_ports(); ++i) {
    reqs.push_back(stepped.find_net("c_req" + std::to_string(i)));
  }
  std::set<std::uint64_t> seen;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int req : reqs) {
      stepped.set_input(req, cycle % 3 != 2 ? 1 : 0);
      edged.set_input(req, cycle % 3 != 2 ? 1 : 0);
    }
    stepped.settle();
    edged.settle();
    stepped.step();
    edged.step_edge();
    ASSERT_EQ(edged.get(slot), stepped.get(slot)) << "cycle " << cycle;
    seen.insert(edged.get(slot));
  }
  EXPECT_GT(seen.size(), 1u);
}

}  // namespace
}  // namespace hicsync::sim
