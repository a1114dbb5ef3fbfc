#include "sim/system.h"

#include <gtest/gtest.h>

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

class Figure1BothOrgs : public ::testing::TestWithParam<OrgKind> {};

TEST_P(Figure1BothOrgs, ConsumersSeeProducedValue) {
  World w = make_world(kFigure1, GetParam());
  // Make f deterministic and visible.
  w.sim->externs().register_fn("f", [](const auto&) { return 1234u; });
  w.sim->externs().register_fn(
      "g", [](const auto& args) { return args.at(0) + 1; });
  w.sim->externs().register_fn(
      "h", [](const auto& args) { return args.at(0) + 2; });
  ASSERT_TRUE(w.sim->run_until_passes(1, 200)) << "cycle " << w.sim->cycle();
  EXPECT_EQ(w.sim->register_value("t2", "y1"), 1235u);
  EXPECT_EQ(w.sim->register_value("t3", "z1"), 1236u);
}

TEST_P(Figure1BothOrgs, RoundRecorded) {
  World w = make_world(kFigure1, GetParam());
  ASSERT_TRUE(w.sim->run_until_passes(1, 200));
  ASSERT_EQ(w.sim->rounds().size(), 1u);
  const DepRound& r = w.sim->rounds()[0];
  EXPECT_EQ(r.dep_id, "mt1");
  ASSERT_EQ(r.consume_cycles.size(), 2u);
  // Consumers read after the produce.
  for (const auto& [thread, cycle] : r.consume_cycles) {
    EXPECT_GT(cycle, r.produce_grant_cycle) << thread;
  }
}

TEST_P(Figure1BothOrgs, MultiplePassesDeliverFreshValues) {
  World w = make_world(kFigure1, GetParam(), /*restart=*/true);
  int calls = 0;
  w.sim->externs().register_fn("f", [&calls](const auto&) {
    return static_cast<std::uint64_t>(1000 + ++calls);
  });
  w.sim->externs().register_fn(
      "g", [](const auto& args) { return args.at(0); });
  w.sim->externs().register_fn(
      "h", [](const auto& args) { return args.at(0); });
  ASSERT_TRUE(w.sim->run_until_passes(3, 1000));
  EXPECT_GE(w.sim->rounds().size(), 3u);
  // The consumers' last values come from a produced round.
  std::uint64_t y1 = w.sim->register_value("t2", "y1");
  EXPECT_GE(y1, 1001u);
  EXPECT_LE(y1, static_cast<std::uint64_t>(1000 + calls));
}

INSTANTIATE_TEST_SUITE_P(Orgs, Figure1BothOrgs,
                         ::testing::Values(OrgKind::Arbitrated,
                                           OrgKind::EventDriven),
                         [](const auto& info) {
                           return info.param == OrgKind::Arbitrated
                                      ? "Arbitrated"
                                      : "EventDriven";
                         });

TEST(SystemSim, ParseOrgInvertsToString) {
  for (OrgKind k : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
    OrgKind parsed = k == OrgKind::Arbitrated ? OrgKind::EventDriven
                                              : OrgKind::Arbitrated;
    std::string error;
    EXPECT_TRUE(parse_org(to_string(k), &parsed, &error));
    EXPECT_EQ(parsed, k);
  }
  // cover's "eventdriven" prefix is not an organization name.
  OrgKind kept = OrgKind::EventDriven;
  std::string error;
  EXPECT_FALSE(parse_org("eventdriven", &kept, &error));
  EXPECT_EQ(kept, OrgKind::EventDriven);
  EXPECT_EQ(error, "unknown organization 'eventdriven'");
}

TEST(SystemSim, ConsumerBlocksUntilGateReleasesProducer) {
  World w = make_world(kFigure1, OrgKind::Arbitrated);
  // Hold the producer back for 30 cycles.
  w.sim->set_gate("t1", [](std::uint64_t cycle) { return cycle >= 30; });
  for (int i = 0; i < 25; ++i) w.sim->step();
  // Consumers must still be waiting (no completed pass).
  EXPECT_EQ(w.sim->passes("t2"), 0);
  EXPECT_EQ(w.sim->passes("t3"), 0);
  EXPECT_TRUE(w.sim->is_blocked("t2"));
  ASSERT_TRUE(w.sim->run_until_passes(1, 200));
  EXPECT_GE(w.sim->rounds()[0].produce_grant_cycle, 30u);
}

TEST(SystemSim, EventDrivenConsumeOrderIsStatic) {
  // The #consumer pragma lists [t2,y1] before [t3,z1]; §3.2: "first the
  // selection will enable access to thread t1 only. Once the write ...
  // happens, then the corresponding reads for y1 and z1 will happen, in
  // that order."
  World w = make_world(kFigure1, OrgKind::EventDriven);
  ASSERT_TRUE(w.sim->run_until_passes(1, 300));
  const DepRound& r = w.sim->rounds()[0];
  ASSERT_EQ(r.consume_cycles.size(), 2u);
  EXPECT_EQ(r.consume_cycles[0].first, "t2");
  EXPECT_EQ(r.consume_cycles[1].first, "t3");
  EXPECT_LT(r.consume_cycles[0].second, r.consume_cycles[1].second);
}

TEST(SystemSim, EventDrivenLatencyDeterministicAcrossRounds) {
  World w = make_world(kFigure1, OrgKind::EventDriven, /*restart=*/true);
  ASSERT_TRUE(w.sim->run_until_passes(5, 2000));
  ASSERT_GE(w.sim->rounds().size(), 4u);
  // Round 0 is warm-up (consumers had not yet reached their read states);
  // from round 1 on, every completed round has the identical post-write
  // latency — the §3.2 determinism property.
  std::uint64_t steady = w.sim->rounds()[1].completion_latency();
  for (std::size_t i = 2; i + 1 < w.sim->rounds().size(); ++i) {
    EXPECT_EQ(w.sim->rounds()[i].completion_latency(), steady)
        << "round " << i;
  }
}

TEST(SystemSim, ArbitratedAndEventDrivenAgreeOnValues) {
  for (OrgKind kind : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
    World w = make_world(kFigure1, kind);
    w.sim->externs().register_fn("f", [](const auto&) { return 555u; });
    w.sim->externs().register_fn(
        "g", [](const auto& args) { return args.at(0) * 2; });
    w.sim->externs().register_fn(
        "h", [](const auto& args) { return args.at(0) * 3; });
    ASSERT_TRUE(w.sim->run_until_passes(1, 300));
    EXPECT_EQ(w.sim->register_value("t2", "y1"), 1110u);
    EXPECT_EQ(w.sim->register_value("t3", "z1"), 1665u);
  }
}

TEST(SystemSim, EightConsumerFanout) {
  std::string src = R"(
    thread p () {
      int data;
      #consumer{m, [c0,v0], [c1,v1], [c2,v2], [c3,v3], [c4,v4], [c5,v5], [c6,v6], [c7,v7]}
      data = f();
    }
  )";
  for (int i = 0; i < 8; ++i) {
    std::string n = std::to_string(i);
    src += "thread c" + n + " () { int v" + n + "; #producer{m, [p,data]} v" +
           n + " = g(data); }\n";
  }
  for (OrgKind kind : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
    World w = make_world(src, kind);
    w.sim->externs().register_fn("f", [](const auto&) { return 42u; });
    w.sim->externs().register_fn(
        "g", [](const auto& args) { return args.at(0) + 1; });
    ASSERT_TRUE(w.sim->run_until_passes(1, 500)) << to_string(kind);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(w.sim->register_value("c" + std::to_string(i),
                                      "v" + std::to_string(i)),
                43u)
          << to_string(kind);
    }
    ASSERT_EQ(w.sim->rounds().size(), 1u);
    EXPECT_EQ(w.sim->rounds()[0].consume_cycles.size(), 8u);
  }
}

TEST(SystemSim, EventDrivenMultipleDependenciesFollowProgramOrder) {
  // One producer thread writes two dependencies in program order; the
  // event-driven modulo schedule must visit them in the same order or the
  // system deadlocks (regression: dependency order once came from pointer-
  // keyed maps and was nondeterministic).
  const char* src = R"(
    thread prod () {
      int a, b;
      #consumer{da, [ca,u]}
      a = f();
      #consumer{db, [cb,v]}
      b = g();
    }
    thread ca () {
      int u;
      #producer{da, [prod,a]}
      u = work(a);
    }
    thread cb () {
      int v;
      #producer{db, [prod,b]}
      v = work(b);
    }
  )";
  World w = make_world(src, OrgKind::EventDriven, /*restart=*/true);
  ASSERT_TRUE(w.sim->run_until_passes(3, 2000))
      << "stalled at cycle " << w.sim->cycle();
  // Rounds alternate da, db, da, db, ...
  const auto& rounds = w.sim->rounds();
  ASSERT_GE(rounds.size(), 4u);
  for (std::size_t i = 0; i + 1 < rounds.size(); i += 2) {
    EXPECT_EQ(rounds[i].dep_id, "da") << i;
    EXPECT_EQ(rounds[i + 1].dep_id, "db") << i;
  }
}

TEST(SystemSim, LocalComputationRunsWithoutControllers) {
  World w = make_world(R"(
    thread t () {
      int i, acc;
      acc = 0;
      for (i = 0; i < 5; i = i + 1) acc = acc + i;
    }
  )",
                       OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 200));
  EXPECT_EQ(w.sim->register_value("t", "acc"), 10u);
}

TEST(SystemSim, ControlFlowCaseStatement) {
  World w = make_world(R"(
    thread t () {
      int s, x;
      s = 2;
      case (s) {
        when 1: x = 10;
        when 2: x = 20;
        default: x = 99;
      }
    }
  )",
                       OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 200));
  EXPECT_EQ(w.sim->register_value("t", "x"), 20u);
}

TEST(SystemSim, ArraysThroughPortA) {
  World w = make_world(R"(
    thread t () {
      int tbl[8];
      int i, sum;
      for (i = 0; i < 4; i = i + 1) tbl[i] = i * i;
      sum = 0;
      for (i = 0; i < 4; i = i + 1) sum = sum + tbl[i];
    }
  )",
                       OrgKind::Arbitrated);
  ASSERT_TRUE(w.sim->run_until_passes(1, 500));
  EXPECT_EQ(w.sim->register_value("t", "sum"), 14u);  // 0+1+4+9
}

TEST(SystemSim, UnknownThreadThrows) {
  World w = make_world(kFigure1, OrgKind::Arbitrated);
  EXPECT_THROW(w.sim->set_gate("ghost", [](std::uint64_t) { return true; }),
               std::runtime_error);
  EXPECT_THROW((void)w.sim->register_value("ghost", "x"),
               std::runtime_error);
  EXPECT_THROW((void)w.sim->register_value("t1", "x1"),  // memory-resident
               std::runtime_error);
}

}  // namespace
}  // namespace hicsync::sim
