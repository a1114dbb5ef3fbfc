#include "rtl/netlist.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rtl/verilog.h"

namespace hicsync::rtl {
namespace {

TEST(Netlist, NetCreationAndUniquing) {
  Module m("t");
  int a = m.add_wire("x", 8);
  int b = m.add_wire("x", 4);
  EXPECT_NE(m.net(a).name, m.net(b).name);
  EXPECT_EQ(m.net(a).width, 8);
  EXPECT_EQ(m.net(b).width, 4);
}

TEST(Netlist, UniqueNameSuffixSequence) {
  // Reused names take the first free base_1, base_2, ...; a suffixed name
  // that was itself taken explicitly is skipped, and reusing such a name
  // suffixes it in turn (x_1 -> x_1_1), exactly as a scan of every net
  // would.
  Module m("t");
  std::vector<std::string> names;
  for (const char* name : {"x", "x", "x_1", "x_3", "x", "x", "x_1", "y",
                           "x_1_1", "x_2"}) {
    names.push_back(m.net(m.add_wire(name, 1)).name);
  }
  const std::vector<std::string> want = {"x",   "x_1",   "x_1_1", "x_3",
                                         "x_2", "x_4",   "x_1_2", "y",
                                         "x_1_1_1", "x_2_1"};
  EXPECT_EQ(names, want);
}

TEST(Netlist, PortsRecorded) {
  Module m("t");
  m.add_input("in", 8);
  m.add_output("out", 8);
  ASSERT_EQ(m.ports().size(), 2u);
  EXPECT_EQ(m.ports()[0].dir, PortDir::Input);
  EXPECT_EQ(m.ports()[1].dir, PortDir::Output);
}

TEST(Netlist, ExprWidths) {
  EXPECT_EQ(econst(5, 8)->width, 8);
  EXPECT_EQ(ebin(RtlOp::Add, econst(1, 8), econst(2, 16))->width, 16);
  EXPECT_EQ(ebin(RtlOp::Eq, econst(1, 8), econst(2, 8))->width, 1);
  EXPECT_EQ(eslice(econst(0xFF, 8), 5, 2)->width, 4);
  std::vector<RtlExprPtr> parts;
  parts.push_back(econst(0, 8));
  parts.push_back(econst(0, 4));
  EXPECT_EQ(econcat(std::move(parts))->width, 12);
}

TEST(Netlist, ConstMasksToWidth) {
  EXPECT_EQ(econst(0x1FF, 8)->value, 0xFFu);
}

TEST(Netlist, CloneIsDeep) {
  RtlExprPtr e = ebin(RtlOp::Add, econst(1, 8), econst(2, 8));
  RtlExprPtr c = e->clone();
  EXPECT_EQ(c->op, RtlOp::Add);
  ASSERT_EQ(c->args.size(), 2u);
  EXPECT_NE(c->args[0].get(), e->args[0].get());
  EXPECT_EQ(c->args[1]->value, 2u);
}

TEST(Netlist, FlipflopBitsCountsSeqTargets) {
  Module m("t");
  (void)m.clk();
  int r1 = m.add_reg("r1", 8);
  int r2 = m.add_reg("r2", 3);
  m.seq(r1, econst(0, 8));
  m.seq(r2, econst(0, 3));
  // Duplicate seq on the same target counts once.
  m.seq(r2, econst(1, 3), econst(1, 1));
  EXPECT_EQ(m.flipflop_bits(), 11);
}

TEST(Netlist, ValidateAcceptsCleanModule) {
  Module m("t");
  int in = m.add_input("in", 8);
  int out = m.add_output("out", 8);
  m.assign(out, ebin(RtlOp::Add, eref(in, 8), econst(1, 8)));
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(Netlist, ValidateRejectsWidthMismatch) {
  Module m("t");
  int out = m.add_output("out", 8);
  m.assign(out, econst(1, 4));
  std::string err;
  EXPECT_FALSE(m.validate(&err));
  EXPECT_NE(err.find("width mismatch"), std::string::npos);
}

TEST(Netlist, ValidateRejectsDoubleDriver) {
  Module m("t");
  int out = m.add_output("out", 1);
  m.assign(out, econst(0, 1));
  m.assign(out, econst(1, 1));
  EXPECT_FALSE(m.validate());
}

TEST(Netlist, ValidateRejectsSeqToWire) {
  Module m("t");
  int w = m.add_wire("w", 1);
  m.seq(w, econst(0, 1));
  std::string err;
  EXPECT_FALSE(m.validate(&err));
  EXPECT_NE(err.find("wire"), std::string::npos);
}

TEST(Netlist, ValidateRejectsContAssignToReg) {
  Module m("t");
  int r = m.add_reg("r", 1);
  m.assign(r, econst(0, 1));
  EXPECT_FALSE(m.validate());
}

TEST(Netlist, DesignTopDefaultsToFirst) {
  Design d;
  d.add_module("first");
  d.add_module("second");
  d.add_module("third");
  const std::string v = emit_design(d);
  // The first module is the top: emitted after every other module.
  EXPECT_LT(v.find("module second ("), v.find("module third ("));
  EXPECT_LT(v.find("module third ("), v.find("module first ("));
  EXPECT_NE(v.find("module first ("), std::string::npos);
}

}  // namespace
}  // namespace hicsync::rtl
