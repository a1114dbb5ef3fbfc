#include "baseline/bare.h"
#include "baseline/lockmem.h"
#include "baseline/protocols.h"

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "fpga/techmap.h"
#include "memorg/arbitrated.h"
#include "netapp/scenarios.h"
#include "../memorg/memorg_test_util.h"

namespace hicsync::baseline {
namespace {

/// The compiled 1-producer/`consumers` fan-out; its one controller is what
/// the organization hand-offs drive.
std::unique_ptr<core::CompileResult> compile_fanout(int consumers,
                                                    sim::OrgKind kind) {
  core::CompileOptions options;
  options.organization = kind;
  auto result =
      core::Compiler(options).compile(netapp::fanout_source(consumers));
  EXPECT_TRUE(result->ok()) << result->diags().str();
  EXPECT_EQ(result->controllers().size(), 1u);
  return result;
}

ClientModule make_bare(rtl::Design& d, int clients) {
  BareConfig cfg;
  cfg.num_clients = clients;
  ClientModule m = generate_bare(d, cfg, "bare");
  std::string err;
  EXPECT_TRUE(m.module.validate(&err)) << err;
  return m;
}

ClientModule make_lockmem(rtl::Design& d, int clients) {
  LockMemConfig cfg;
  cfg.num_clients = clients;
  cfg.lock_addrs = {4, 6};
  ClientModule m = generate_lockmem(d, cfg, "lockmem");
  std::string err;
  EXPECT_TRUE(m.module.validate(&err)) << err;
  return m;
}

TEST(Bare, WriteReadThroughSharedPort) {
  rtl::Design d;
  rtl::Module& m = make_bare(d, 2);
  rtl::ModuleSim sim(m);
  sim.reset();
  sim.set_input("req0", 1);
  sim.set_input("we0", 1);
  sim.set_input("addr0", 9);
  sim.set_input("wdata0", 0xAB);
  sim.settle();
  EXPECT_EQ(sim.get("grant0"), 1u);
  sim.step();
  sim.set_input("req0", 0);
  sim.set_input("we0", 0);
  sim.step();  // write commits
  EXPECT_EQ(sim.read_mem("mem", 9), 0xABu);
  // Read back via client 1.
  sim.set_input("req1", 1);
  sim.set_input("addr1", 9);
  sim.settle();
  EXPECT_EQ(sim.get("grant1"), 1u);
  sim.step();
  sim.set_input("req1", 0);
  sim.step();
  sim.settle();
  EXPECT_EQ(sim.get("valid1"), 1u);
  EXPECT_EQ(sim.get("bus_rdata"), 0xABu);
}

TEST(Bare, NoGuardsMeansNoBlocking) {
  // The defining property of the baseline: a read of an unwritten guarded
  // address is granted immediately (returning garbage) — nothing enforces
  // the dependency.
  rtl::Design d;
  rtl::Module& m = make_bare(d, 2);
  rtl::ModuleSim sim(m);
  sim.reset();
  sim.set_input("req1", 1);
  sim.set_input("addr1", 4);
  sim.settle();
  EXPECT_EQ(sim.get("grant1"), 1u);  // would block in the arbitrated org
}

TEST(LockMem, AcquireExcludesOthers) {
  rtl::Design d;
  rtl::Module& m = make_lockmem(d, 3);
  rtl::ModuleSim sim(m);
  sim.reset();
  // Client 0 acquires the lock on address 4.
  sim.set_input("lock_req0", 1);
  sim.set_input("lock_addr0", 4);
  sim.step();
  sim.set_input("lock_req0", 0);
  sim.settle();
  EXPECT_EQ(sim.get("lock_grant0"), 1u);
  // Client 1 cannot acquire it.
  sim.set_input("lock_req1", 1);
  sim.set_input("lock_addr1", 4);
  for (int i = 0; i < 4; ++i) {
    sim.step();
    sim.settle();
    EXPECT_EQ(sim.get("lock_grant1"), 0u);
  }
  // Client 1's data access to 4 is refused while 0 holds the lock.
  sim.set_input("lock_req1", 0);
  sim.set_input("req1", 1);
  sim.set_input("addr1", 4);
  sim.settle();
  EXPECT_EQ(sim.get("grant1"), 0u);
  // The owner's access is granted.
  sim.set_input("req0", 1);
  sim.set_input("we0", 1);
  sim.set_input("addr0", 4);
  sim.set_input("wdata0", 7);
  sim.settle();
  EXPECT_EQ(sim.get("grant0"), 1u);
}

TEST(LockMem, UnlockReleases) {
  rtl::Design d;
  rtl::Module& m = make_lockmem(d, 2);
  rtl::ModuleSim sim(m);
  sim.reset();
  sim.set_input("lock_req0", 1);
  sim.set_input("lock_addr0", 4);
  sim.step();
  sim.set_input("lock_req0", 0);
  sim.settle();
  ASSERT_EQ(sim.get("lock_grant0"), 1u);
  sim.set_input("unlock_req0", 1);
  sim.step();
  sim.set_input("unlock_req0", 0);
  sim.settle();
  EXPECT_EQ(sim.get("lock_grant0"), 0u);
  // Now client 1 can acquire.
  sim.set_input("lock_req1", 1);
  sim.set_input("lock_addr1", 4);
  sim.step();
  sim.set_input("lock_req1", 0);
  sim.settle();
  EXPECT_EQ(sim.get("lock_grant1"), 1u);
}

TEST(LockMem, UnlockedAddressesFreelyAccessible) {
  rtl::Design d;
  rtl::Module& m = make_lockmem(d, 2);
  rtl::ModuleSim sim(m);
  sim.reset();
  // Address 20 has no lock entry: direct access.
  sim.set_input("req1", 1);
  sim.set_input("we1", 1);
  sim.set_input("addr1", 20);
  sim.set_input("wdata1", 5);
  sim.settle();
  EXPECT_EQ(sim.get("grant1"), 1u);
}

class HandoffComparison : public ::testing::TestWithParam<int> {};

TEST_P(HandoffComparison, AllSubstratesDeliverCorrectValues) {
  const int consumers = GetParam();
  const int rounds = 4;
  {
    rtl::Design d;
    auto m1 = run_polling_handoff(make_bare(d, consumers + 1), consumers,
                                  rounds);
    EXPECT_TRUE(m1.ok) << "polling";
    EXPECT_EQ(m1.round_latencies.size(), static_cast<std::size_t>(rounds));
  }
  {
    rtl::Design d;
    auto m2 = run_lock_handoff(make_lockmem(d, consumers + 1), consumers,
                               rounds);
    EXPECT_TRUE(m2.ok) << "lock";
  }
  {
    auto org = compile_fanout(consumers, sim::OrgKind::Arbitrated);
    auto m3 = run_arbitrated_handoff(org->controllers().front(), rounds);
    EXPECT_TRUE(m3.ok) << "arbitrated";
  }
  {
    auto org = compile_fanout(consumers, sim::OrgKind::EventDriven);
    auto m4 = run_eventdriven_handoff(org->controllers().front(), rounds);
    EXPECT_TRUE(m4.ok) << "event-driven";
  }
}

INSTANTIATE_TEST_SUITE_P(Consumers, HandoffComparison,
                         ::testing::Values(2, 4, 8));

TEST(HandoffComparison, PollingBurnsMoreBusOperations) {
  const int consumers = 4;
  const int rounds = 4;
  rtl::Design d1;
  auto polling = run_polling_handoff(make_bare(d1, consumers + 1),
                                     consumers, rounds);
  auto org = compile_fanout(consumers, sim::OrgKind::Arbitrated);
  auto arb = run_arbitrated_handoff(org->controllers().front(), rounds);
  ASSERT_TRUE(polling.ok);
  ASSERT_TRUE(arb.ok);
  // The guarded organization needs exactly 1 write + N reads per round;
  // polling adds flag reads and ack writes on the same bus.
  EXPECT_GT(polling.bus_grants, arb.bus_grants);
  EXPECT_EQ(arb.bus_grants,
            static_cast<std::uint64_t>(rounds * (consumers + 1)));
}

TEST(HandoffComparison, EventDrivenDeterministicArbitratedMaybeNot) {
  const int consumers = 4;
  const int rounds = 6;
  auto ev = compile_fanout(consumers, sim::OrgKind::EventDriven);
  auto m_ev = run_eventdriven_handoff(ev->controllers().front(), rounds);
  ASSERT_TRUE(m_ev.ok);
  // §3.2: deterministic post-write timing.
  EXPECT_TRUE(m_ev.latencies_identical())
      << m_ev.min_latency() << ".." << m_ev.max_latency();
}

TEST(HandoffComparison, BareWrapperSmallerThanArbitrated) {
  // The price of enforcement: the bare wrapper has no CAM/countdown logic.
  rtl::Design d1;
  auto bare = fpga::TechMapper().map(make_bare(d1, 3));
  rtl::Design d2;
  rtl::Module& org = memorg::generate_arbitrated(
      d2, memorg::testing::arb_config(2), "arb");
  auto arb = fpga::TechMapper().map(org);
  EXPECT_LT(bare.luts, arb.luts);
}

}  // namespace
}  // namespace hicsync::baseline
