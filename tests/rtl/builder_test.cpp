#include "rtl/builder.h"

#include <gtest/gtest.h>

#include "rtl/eval.h"

namespace hicsync::rtl {
namespace {

TEST(Builder, MuxTreeSelectsEachInput) {
  Module m("t");
  int sel = m.add_input("sel", 2);
  int out = m.add_output("out", 8);
  std::vector<RtlExprPtr> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(econst(static_cast<std::uint64_t>(10 + i), 8));
  }
  m.assign(out, build_mux_tree(m, sel, std::move(inputs)));
  ModuleSim sim(m);
  for (int i = 0; i < 4; ++i) {
    sim.set_input("sel", static_cast<std::uint64_t>(i));
    sim.settle();
    EXPECT_EQ(sim.get("out"), static_cast<std::uint64_t>(10 + i));
  }
}

TEST(Builder, MuxTreeNonPowerOfTwo) {
  Module m("t");
  int sel = m.add_input("sel", 2);
  int out = m.add_output("out", 8);
  std::vector<RtlExprPtr> inputs;
  inputs.push_back(econst(1, 8));
  inputs.push_back(econst(2, 8));
  inputs.push_back(econst(3, 8));
  m.assign(out, build_mux_tree(m, sel, std::move(inputs)));
  ModuleSim sim(m);
  sim.set_input("sel", 0);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 1u);
  sim.set_input("sel", 1);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 2u);
  sim.set_input("sel", 2);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 3u);
}

TEST(Builder, MuxTreeSingleInputPassesThrough) {
  Module m("t");
  int sel = m.add_input("sel", 1);
  int out = m.add_output("out", 8);
  std::vector<RtlExprPtr> inputs;
  inputs.push_back(econst(77, 8));
  m.assign(out, build_mux_tree(m, sel, std::move(inputs)));
  ModuleSim sim(m);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 77u);
}

TEST(Builder, DecoderOneHot) {
  Module m("t");
  int sel = m.add_input("sel", 2);
  auto dec = build_decoder(m, sel, 4, "d");
  std::vector<int> outs;
  for (int i = 0; i < 4; ++i) {
    int o = m.add_output("o" + std::to_string(i), 1);
    m.assign(o, eref(dec[static_cast<std::size_t>(i)], 1));
    outs.push_back(o);
  }
  ModuleSim sim(m);
  for (int v = 0; v < 4; ++v) {
    sim.set_input("sel", static_cast<std::uint64_t>(v));
    sim.settle();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(sim.get("o" + std::to_string(i)), i == v ? 1u : 0u);
    }
  }
}

TEST(Builder, FixedPriorityGrantsHighestActive) {
  Module m("t");
  std::vector<int> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(m.add_input("r" + std::to_string(i), 1));
  }
  auto grants = build_fixed_priority(m, reqs, "p");
  for (int i = 0; i < 3; ++i) {
    int o = m.add_output("g" + std::to_string(i), 1);
    m.assign(o, eref(grants[static_cast<std::size_t>(i)], 1));
  }
  ModuleSim sim(m);
  sim.set_input("r0", 0);
  sim.set_input("r1", 1);
  sim.set_input("r2", 1);
  sim.settle();
  EXPECT_EQ(sim.get("g0"), 0u);
  EXPECT_EQ(sim.get("g1"), 1u);
  EXPECT_EQ(sim.get("g2"), 0u);
  sim.set_input("r0", 1);
  sim.settle();
  EXPECT_EQ(sim.get("g0"), 1u);
  EXPECT_EQ(sim.get("g1"), 0u);
}

class RoundRobinTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundRobinTest, GrantsAreOneHotAndFair) {
  const int n = GetParam();
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  std::vector<int> reqs;
  for (int i = 0; i < n; ++i) {
    reqs.push_back(m.add_input("r" + std::to_string(i), 1));
  }
  auto arb = build_round_robin_arbiter(m, reqs, "rr");
  for (int i = 0; i < n; ++i) {
    int o = m.add_output("g" + std::to_string(i), 1);
    m.assign(o, eref(arb.grant[static_cast<std::size_t>(i)], 1));
  }
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;

  ModuleSim sim(m);
  sim.reset();
  // All requesters active: over n cycles every one is granted exactly once.
  for (int i = 0; i < n; ++i) {
    sim.set_input("r" + std::to_string(i), 1);
  }
  std::vector<int> grants(static_cast<std::size_t>(n), 0);
  for (int cycle = 0; cycle < n; ++cycle) {
    sim.settle();
    int granted = -1;
    for (int i = 0; i < n; ++i) {
      if (sim.get("g" + std::to_string(i)) != 0) {
        EXPECT_EQ(granted, -1) << "grant not one-hot";
        granted = i;
      }
    }
    ASSERT_GE(granted, 0);
    ++grants[static_cast<std::size_t>(granted)];
    sim.step();
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(grants[static_cast<std::size_t>(i)], 1) << "requester " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundRobinTest,
                         ::testing::Values(2, 3, 4, 8));

TEST(Builder, RoundRobinNoRequestsNoGrant) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  std::vector<int> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(m.add_input("r" + std::to_string(i), 1));
  }
  auto arb = build_round_robin_arbiter(m, reqs, "rr");
  int any = m.add_output("any", 1);
  m.assign(any, eref(arb.any_grant, 1));
  ModuleSim sim(m);
  sim.reset();
  sim.settle();
  EXPECT_EQ(sim.get("any"), 0u);
}

TEST(Builder, RoundRobinSingleRequesterAlwaysGranted) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  std::vector<int> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(m.add_input("r" + std::to_string(i), 1));
  }
  auto arb = build_round_robin_arbiter(m, reqs, "rr");
  int g2 = m.add_output("g2", 1);
  m.assign(g2, eref(arb.grant[2], 1));
  ModuleSim sim(m);
  sim.reset();
  sim.set_input("r2", 1);
  for (int cycle = 0; cycle < 6; ++cycle) {
    sim.settle();
    EXPECT_EQ(sim.get("g2"), 1u) << "cycle " << cycle;
    sim.step();
  }
}

}  // namespace
}  // namespace hicsync::rtl
