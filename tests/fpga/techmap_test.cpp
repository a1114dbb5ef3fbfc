#include "fpga/techmap.h"

#include <gtest/gtest.h>

#include "rtl/builder.h"

namespace hicsync::fpga {
namespace {

TEST(TechMap, EmptyModuleMapsToNothing) {
  rtl::Module m("t");
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 0);
  EXPECT_EQ(r.ffs, 0);
  EXPECT_EQ(r.slices, 0);
  EXPECT_EQ(r.logic_levels, 0);
}

TEST(TechMap, SingleGateIsOneLut) {
  rtl::Module m("t");
  int a = m.add_input("a", 1);
  int b = m.add_input("b", 1);
  int y = m.add_output("y", 1);
  m.assign(y, rtl::ebin(rtl::RtlOp::And, rtl::eref(a, 1), rtl::eref(b, 1)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 1);
  EXPECT_EQ(r.logic_levels, 1);
}

TEST(TechMap, FanoutOneChainMergesIntoOneLut) {
  // (a & b) | c — three inputs, one LUT4.
  rtl::Module m("t");
  int a = m.add_input("a", 1);
  int b = m.add_input("b", 1);
  int c = m.add_input("c", 1);
  int y = m.add_output("y", 1);
  m.assign(y, rtl::ebin(rtl::RtlOp::Or,
                        rtl::ebin(rtl::RtlOp::And, rtl::eref(a, 1),
                                  rtl::eref(b, 1)),
                        rtl::eref(c, 1)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 1);
  EXPECT_EQ(r.logic_levels, 1);
}

TEST(TechMap, FiveInputConeNeedsTwoLuts) {
  // ((a&b)|(c&d)) ^ e — five inputs.
  rtl::Module m("t");
  int a = m.add_input("a", 1);
  int b = m.add_input("b", 1);
  int c = m.add_input("c", 1);
  int d = m.add_input("d", 1);
  int e = m.add_input("e", 1);
  int y = m.add_output("y", 1);
  m.assign(
      y,
      rtl::ebin(rtl::RtlOp::Xor,
                rtl::ebin(rtl::RtlOp::Or,
                          rtl::ebin(rtl::RtlOp::And, rtl::eref(a, 1),
                                    rtl::eref(b, 1)),
                          rtl::ebin(rtl::RtlOp::And, rtl::eref(c, 1),
                                    rtl::eref(d, 1))),
                rtl::eref(e, 1)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 2);
  EXPECT_EQ(r.logic_levels, 2);
}

TEST(TechMap, WideBitwiseOpCostsOneLutPerBit) {
  rtl::Module m("t");
  int a = m.add_input("a", 16);
  int b = m.add_input("b", 16);
  int y = m.add_output("y", 16);
  m.assign(y, rtl::ebin(rtl::RtlOp::Xor, rtl::eref(a, 16), rtl::eref(b, 16)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 16);
  EXPECT_EQ(r.logic_levels, 1);
}

TEST(TechMap, AdderUsesCarryChain) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 8);
  int y = m.add_output("y", 8);
  m.assign(y, rtl::ebin(rtl::RtlOp::Add, rtl::eref(a, 8), rtl::eref(b, 8)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 8);
  EXPECT_EQ(r.carry_luts, 8);
  // One logic level plus carry bits, not 8 levels.
  EXPECT_EQ(r.logic_levels, 1);
  EXPECT_EQ(r.max_carry_bits, 8);
}

TEST(TechMap, EqualityAgainstConstantIsCheap) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int y = m.add_output("y", 1);
  m.assign(y, rtl::ebin(rtl::RtlOp::Eq, rtl::eref(a, 8),
                        rtl::econst(0x3C, 8)));
  MapResult r = TechMapper().map(m);
  // 8 bit tests fold into a small reduce tree: at most 3 LUTs, 2 levels.
  EXPECT_LE(r.luts, 3);
  EXPECT_LE(r.logic_levels, 2);
  EXPECT_GE(r.luts, 1);
}

TEST(TechMap, MuxCostsOneLutPerBit) {
  rtl::Module m("t");
  int s = m.add_input("s", 1);
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 8);
  int y = m.add_output("y", 8);
  m.assign(y, rtl::emux(rtl::eref(s, 1), rtl::eref(a, 8), rtl::eref(b, 8)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 8);
  EXPECT_EQ(r.logic_levels, 1);
}

TEST(TechMap, ConstantFoldingEliminatesLogic) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int y = m.add_output("y", 8);
  // a & 0 = 0; 0 | a = a: no LUTs at all.
  m.assign(y, rtl::ebin(rtl::RtlOp::Or,
                        rtl::ebin(rtl::RtlOp::And, rtl::eref(a, 8),
                                  rtl::econst(0, 8)),
                        rtl::eref(a, 8)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 0);
}

TEST(TechMap, FlipFlopsCounted) {
  rtl::Module m("t");
  (void)m.clk();
  (void)m.rst();
  int q = m.add_reg("q", 12);
  m.seq(q, rtl::econst(0, 12));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.ffs, 12);
  EXPECT_EQ(r.slices, 6);  // 2 FFs per slice
}

TEST(TechMap, SlicePackingUsesMaxOfLutAndFf) {
  rtl::Module m("t");
  (void)m.clk();
  (void)m.rst();
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 8);
  int y = m.add_output("y", 8);
  m.assign(y, rtl::ebin(rtl::RtlOp::Xor, rtl::eref(a, 8), rtl::eref(b, 8)));
  int q = m.add_reg("q", 2);
  m.seq(q, rtl::econst(0, 2));
  MapResult r = TechMapper().map(m);
  // 8 LUTs / 2 per slice = 4 slices dominate over 1 FF slice.
  EXPECT_EQ(r.slices, 4);
}

TEST(TechMap, MemoryCountsBramBlocks) {
  rtl::Module m("t");
  (void)m.clk();
  m.add_memory("ram", 32, 512);
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.bram_blocks, 1);

  rtl::Module m2("t2");
  (void)m2.clk();
  m2.add_memory("big", 36, 1024);
  EXPECT_EQ(TechMapper().map(m2).bram_blocks, 2);
}

TEST(TechMap, ShiftByConstantIsFree) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int y = m.add_output("y", 8);
  m.assign(y, rtl::ebin(rtl::RtlOp::Shl, rtl::eref(a, 8),
                        rtl::econst(3, 8)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 0);
}

TEST(TechMap, NonConstantShiftRejected) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int s = m.add_input("s", 3);
  int y = m.add_output("y", 8);
  m.assign(y, rtl::ebin(rtl::RtlOp::Shl, rtl::eref(a, 8), rtl::eref(s, 8)));
  EXPECT_THROW((void)TechMapper().map(m), std::runtime_error);
}

TEST(TechMap, DeeperConesIncreaseLevels) {
  // A chain of dependent wide ANDs with fanout > 1 cannot fully merge.
  rtl::Module m("t");
  int a = m.add_input("a", 1);
  int prev = a;
  for (int i = 0; i < 6; ++i) {
    int in = m.add_input("x" + std::to_string(i), 1);
    int w = m.add_wire("w" + std::to_string(i), 1);
    m.assign(w, rtl::ebin(rtl::RtlOp::And, rtl::eref(prev, 1),
                          rtl::eref(in, 1)));
    // Give every intermediate an extra consumer to defeat merging.
    int probe = m.add_output("p" + std::to_string(i), 1);
    m.assign(probe, rtl::eref(w, 1));
    prev = w;
  }
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.logic_levels, 6);
  EXPECT_EQ(r.luts, 6);
}

TEST(TechMap, CombinationalCycleRejected) {
  rtl::Module m("t");
  int a = m.add_input("a", 1);
  int x = m.add_wire("x", 1);
  int y = m.add_output("y", 1);
  m.assign(x, rtl::ebin(rtl::RtlOp::And, rtl::eref(a, 1), rtl::eref(y, 1)));
  m.assign(y, rtl::enot(rtl::eref(x, 1)));
  EXPECT_THROW((void)TechMapper().map(m), std::runtime_error);
}

TEST(TechMap, NeOfIdenticalOperandsIsFree) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int y = m.add_output("y", 1);
  m.assign(y, rtl::ebin(rtl::RtlOp::Ne, rtl::eref(a, 8), rtl::eref(a, 8)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 0);
  EXPECT_EQ(r.logic_levels, 0);
}

TEST(TechMap, EqWithConstantMismatchKeepsItsDanglingGates) {
  // {a[3:2], 1'b0, a[1:0]} == 5'b00100: bit 2 compares a constant 0 with a
  // constant 1, so the result is constant 0. The inverters made for the
  // other four bits, before and after that bit, stay in the netlist and are
  // counted.
  rtl::Module m("t");
  int a = m.add_input("a", 4);
  int y = m.add_output("y", 1);
  std::vector<rtl::RtlExprPtr> parts;
  parts.push_back(rtl::eslice(rtl::eref(a, 4), 3, 2));
  parts.push_back(rtl::econst(0, 1));
  parts.push_back(rtl::eslice(rtl::eref(a, 4), 1, 0));
  m.assign(y, rtl::ebin(rtl::RtlOp::Eq, rtl::econcat(std::move(parts)),
                        rtl::econst(0x04, 5)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 4);
  EXPECT_EQ(r.logic_levels, 1);
}

TEST(TechMap, LtOfUnequalWidthsIsOneChainOfTheWiderWidth) {
  rtl::Module m("t");
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 3);
  int y = m.add_output("y", 1);
  m.assign(y, rtl::ebin(rtl::RtlOp::Lt, rtl::eref(a, 8), rtl::eref(b, 3)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 8);
  EXPECT_EQ(r.carry_luts, 8);
  EXPECT_EQ(r.logic_levels, 1);
  EXPECT_EQ(r.max_carry_bits, 8);
}

TEST(TechMap, SlicePastTheOperandReadsConstantZero) {
  rtl::Module m("t");
  int a = m.add_input("a", 4);
  int y = m.add_output("y", 1);
  int z = m.add_output("z", 1);
  // a[7:4] is all constant 0: its OR-reduction costs nothing.
  m.assign(y, rtl::ereduce_or(rtl::eslice(rtl::eref(a, 4), 7, 4)));
  // a[5:2] is {0, 0, a[3], a[2]}: one 2-input LUT.
  m.assign(z, rtl::ereduce_or(rtl::eslice(rtl::eref(a, 4), 5, 2)));
  MapResult r = TechMapper().map(m);
  EXPECT_EQ(r.luts, 1);
  EXPECT_EQ(r.logic_levels, 1);
}

}  // namespace
}  // namespace hicsync::fpga
