#include "netapp/scenarios.h"

#include <gtest/gtest.h>

#include "../hic/hic_test_util.h"
#include "analysis/depgraph.h"
#include "fpga/techmap.h"
#include "fpga/timing.h"
#include "memalloc/portplan.h"
#include "netapp/forwarding_rtl.h"
#include "netapp/traffic.h"

namespace hicsync::netapp {
namespace {

using hic::testing::compile;

TEST(Scenarios, Figure1Compiles) {
  auto c = compile(figure1_source());
  EXPECT_TRUE(c->ok) << c->diags.str();
  EXPECT_EQ(c->sema->dependencies().size(), 1u);
}

class FanoutScenario : public ::testing::TestWithParam<int> {};

TEST_P(FanoutScenario, CompilesWithNConsumers) {
  const int n = GetParam();
  auto c = compile(fanout_source(n));
  ASSERT_TRUE(c->ok) << c->diags.str();
  ASSERT_EQ(c->sema->dependencies().size(), 1u);
  EXPECT_EQ(c->sema->dependencies()[0].dependency_number(), n);
  // One BRAM, N consumer pseudo-ports — the Table 1/2 configuration.
  memalloc::MemoryMap map = memalloc::Allocator().allocate(*c->sema);
  ASSERT_EQ(map.brams().size(), 1u);
  std::vector<synth::ThreadFsm> fsms;
  for (const auto& t : c->program.threads) {
    fsms.push_back(synth::ThreadFsm::synthesize(t, *c->sema));
  }
  auto plans = memalloc::PortPlanner::plan(*c->sema, map, fsms);
  EXPECT_EQ(plans[0].consumer_pseudo_ports(), n);
  EXPECT_EQ(plans[0].producer_pseudo_ports(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FanoutScenario, ::testing::Values(2, 4, 8));

TEST(Scenarios, IpForwardingCompilesDeadlockFree) {
  auto c = compile(ip_forwarding_source());
  ASSERT_TRUE(c->ok) << c->diags.str();
  EXPECT_EQ(c->sema->dependencies().size(), 3u);
  auto g = analysis::ThreadDepGraph::build(c->program,
                                           c->sema->dependencies());
  EXPECT_FALSE(g.has_deadlock_risk());
}

TEST(Scenarios, IpForwardingEndToEndSimulation) {
  auto c = compile(ip_forwarding_source());
  ASSERT_TRUE(c->ok) << c->diags.str();
  memalloc::MemoryMap map = memalloc::Allocator().allocate(*c->sema);
  std::vector<synth::ThreadFsm> fsms;
  for (const auto& t : c->program.threads) {
    fsms.push_back(synth::ThreadFsm::synthesize(t, *c->sema));
  }
  auto plans = memalloc::PortPlanner::plan(*c->sema, map, fsms);
  rtl::Design design;
  const auto controllers = memorg::build_controllers(
      design, map, plans, {memorg::OrgKind::Arbitrated});
  sim::SystemOptions opt;
  opt.organization = sim::OrgKind::Arbitrated;
  opt.restart_threads = true;
  sim::SystemSim s(c->program, *c->sema, fsms, controllers, opt);

  LpmTable table;
  table.insert_cidr("10.0.0.0/9", 0);
  table.insert_cidr("10.128.0.0/9", 1);
  wire_forwarding_externs(s, table, /*seed=*/1);
  // Packets arrive on both ports with a CBR process.
  s.set_gate("rx0", arrival_gate(std::make_shared<CbrArrivals>(40, 0)));
  s.set_gate("rx1", arrival_gate(std::make_shared<CbrArrivals>(40, 7)));

  ASSERT_TRUE(s.run_until_passes(2, 5000));
  // Both tx threads emitted something derived from a descriptor.
  EXPECT_GE(s.passes("tx0"), 2);
  EXPECT_GE(s.passes("tx1"), 2);
  // Dependency rounds happened on all three dependencies.
  int in0 = 0, in1 = 0, out = 0;
  for (const auto& r : s.rounds()) {
    if (r.dep_id == "in0") ++in0;
    if (r.dep_id == "in1") ++in1;
    if (r.dep_id == "out") ++out;
  }
  EXPECT_GE(in0, 1);
  EXPECT_GE(in1, 1);
  EXPECT_GE(out, 1);
}

TEST(ForwardingCore, GeneratesValidModule) {
  rtl::Design d;
  rtl::Module& m =
      generate_forwarding_core(d, ForwardingCoreConfig{}, "fwd_core");
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(ForwardingCore, AreaInPaperNeighbourhood) {
  // §4: "around 1000 slices ... for the core forwarding function" of the
  // two-port app. Our regenerated core should land within the same order
  // of magnitude (hundreds of slices).
  rtl::Design d;
  rtl::Module& m =
      generate_forwarding_core(d, ForwardingCoreConfig{}, "fwd_core");
  auto r = fpga::TechMapper().map(m);
  EXPECT_GT(r.slices, 100);
  EXPECT_LT(r.slices, 3000);
  EXPECT_GT(r.ffs, 200);  // pipeline registers dominate
  EXPECT_GT(r.bram_blocks, 0);
}

TEST(ForwardingCore, AreaScalesWithPorts) {
  auto slices_for = [](int ports) {
    rtl::Design d;
    ForwardingCoreConfig cfg;
    cfg.ports = ports;
    rtl::Module& m = generate_forwarding_core(d, cfg, "fwd_core");
    return fpga::TechMapper().map(m).slices;
  };
  EXPECT_LT(slices_for(1), slices_for(2));
  EXPECT_LT(slices_for(2), slices_for(4));
}

TEST(ForwardingCore, ChecksumStageVerifiesRealHeader) {
  // Functional spot check of the generated pipeline: feed a valid header
  // and watch ok_q assert; corrupt it and watch it stay low.
  rtl::Design d;
  ForwardingCoreConfig cfg;
  cfg.ports = 1;
  rtl::Module& m = generate_forwarding_core(d, cfg, "fwd_core");
  rtl::ModuleSim sim(m);
  sim.reset();

  Ipv4Header h;
  h.ttl = 9;
  h.protocol = 17;
  h.src = 0x0A000001;
  h.dst = 0x0A800001;
  h.finalize_checksum();
  auto bytes = h.serialize();
  auto word = [&](int i) {
    return (static_cast<std::uint64_t>(bytes[4 * i]) << 24) |
           (static_cast<std::uint64_t>(bytes[4 * i + 1]) << 16) |
           (static_cast<std::uint64_t>(bytes[4 * i + 2]) << 8) |
           bytes[4 * i + 3];
  };
  sim.set_input("p0_in_valid", 1);
  for (int w = 0; w < 5; ++w) {
    sim.set_input("p0_hdr" + std::to_string(w), word(w));
  }
  sim.step();  // capture
  sim.set_input("p0_in_valid", 0);
  sim.step();  // stage 1 -> ok_q
  EXPECT_EQ(sim.get("p0_ok_q"), 1u);

  // Corrupted checksum: ok_q must stay low.
  sim.set_input("p0_in_valid", 1);
  sim.set_input("p0_hdr2", word(2) ^ 1);
  sim.step();
  sim.set_input("p0_in_valid", 0);
  sim.step();
  EXPECT_EQ(sim.get("p0_ok_q"), 0u);
}

TEST(ForwardingCore, TtlUpdateMatchesSoftwareModel) {
  rtl::Design d;
  ForwardingCoreConfig cfg;
  cfg.ports = 1;
  rtl::Module& m = generate_forwarding_core(d, cfg, "fwd_core");
  rtl::ModuleSim sim(m);
  sim.reset();

  Ipv4Header h;
  h.ttl = 33;
  h.protocol = 6;
  h.src = 0x0A000001;
  h.dst = 0x0A800001;
  h.finalize_checksum();
  auto bytes = h.serialize();
  auto word = [&](int i) {
    return (static_cast<std::uint64_t>(bytes[4 * i]) << 24) |
           (static_cast<std::uint64_t>(bytes[4 * i + 1]) << 16) |
           (static_cast<std::uint64_t>(bytes[4 * i + 2]) << 8) |
           bytes[4 * i + 3];
  };
  sim.set_input("p0_in_valid", 1);
  for (int w = 0; w < 5; ++w) {
    sim.set_input("p0_hdr" + std::to_string(w), word(w));
  }
  sim.step();
  sim.set_input("p0_in_valid", 0);
  for (int i = 0; i < 4; ++i) sim.step();  // drain the pipeline

  Ipv4Header expect = h;
  ASSERT_TRUE(expect.forward_hop());
  std::uint64_t got_ttl_proto = sim.get("p0_out_ttl_proto");
  EXPECT_EQ(got_ttl_proto >> 8, expect.ttl);
  EXPECT_EQ(sim.get("p0_out_cksum"), expect.checksum);
}

}  // namespace
}  // namespace hicsync::netapp
