#include "rtl/verilog.h"

#include <gtest/gtest.h>

namespace hicsync::rtl {
namespace {

TEST(Verilog, EmitsModuleSkeleton) {
  Module m("adder");
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 8);
  int sum = m.add_output("sum", 8);
  m.assign(sum, ebin(RtlOp::Add, eref(a, 8), eref(b, 8)));
  std::string v = emit_module(m);
  EXPECT_NE(v.find("module adder ("), std::string::npos);
  EXPECT_NE(v.find("input  wire [7:0] a"), std::string::npos);
  EXPECT_NE(v.find("output wire [7:0] sum"), std::string::npos);
  EXPECT_NE(v.find("assign sum = (a + b);"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, ScalarPortsHaveNoRange) {
  Module m("t");
  m.add_input("bit_in", 1);
  std::string v = emit_module(m);
  EXPECT_NE(v.find("input  wire bit_in"), std::string::npos);
  EXPECT_EQ(v.find("[0:0]"), std::string::npos);
}

TEST(Verilog, SequentialBlockWithReset) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  int q = m.add_output_reg("q", 4);
  m.seq(q, ebin(RtlOp::Add, eref(q, 4), econst(1, 4)), nullptr, 3);
  std::string v = emit_module(m);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("if (rst)"), std::string::npos);
  EXPECT_NE(v.find("q <= 4'd3;"), std::string::npos);
  EXPECT_NE(v.find("q <= (q + 4'd1);"), std::string::npos);
}

TEST(Verilog, EnableGuardEmitted) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  int en = m.add_input("en", 1);
  int q = m.add_output_reg("q", 1);
  m.seq(q, econst(1, 1), eref(en, 1));
  std::string v = emit_module(m);
  EXPECT_NE(v.find("if (en) q <= 1'd1;"), std::string::npos);
}

TEST(Verilog, MemoryInferenceIdiom) {
  Module m("t");
  (void)m.clk();
  int addr = m.add_input("addr", 4);
  int we = m.add_input("we", 1);
  int wdata = m.add_input("wdata", 8);
  int rdata = m.add_output_reg("rdata", 8);
  Memory& mem = m.add_memory("ram", 8, 16);
  MemoryPort p;
  p.addr = eref(addr, 4);
  p.write_enable = eref(we, 1);
  p.write_data = eref(wdata, 8);
  p.read_data = rdata;
  mem.ports.push_back(std::move(p));
  std::string v = emit_module(m);
  EXPECT_NE(v.find("reg [7:0] ram [0:15];"), std::string::npos);
  EXPECT_NE(v.find("if (we) ram[addr] <= wdata;"), std::string::npos);
  EXPECT_NE(v.find("rdata <= ram[addr];"), std::string::npos);
}

TEST(Verilog, ExprRendering) {
  Module m("t");
  int a = m.add_input("a", 8);
  EXPECT_EQ(emit_expr(m, *econst(5, 4)), "4'd5");
  EXPECT_EQ(emit_expr(m, *eref(a, 8)), "a");
  EXPECT_EQ(emit_expr(m, *eslice(eref(a, 8), 3, 1)), "a[3:1]");
  EXPECT_EQ(emit_expr(m, *eslice(eref(a, 8), 2, 2)), "a[2]");
  EXPECT_EQ(emit_expr(m, *enot(eref(a, 8))), "~(a)");
  EXPECT_EQ(emit_expr(m, *emux(econst(1, 1), econst(2, 4), econst(3, 4))),
            "(1'd1 ? 4'd2 : 4'd3)");
  EXPECT_EQ(emit_expr(m, *ereduce_or(eref(a, 8))), "(|a)");
}

}  // namespace
}  // namespace hicsync::rtl
