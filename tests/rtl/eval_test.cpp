#include "rtl/eval.h"

#include <gtest/gtest.h>

namespace hicsync::rtl {
namespace {

TEST(Eval, CombinationalAdd) {
  Module m("t");
  int a = m.add_input("a", 8);
  int b = m.add_input("b", 8);
  int sum = m.add_output("sum", 8);
  m.assign(sum, ebin(RtlOp::Add, eref(a, 8), eref(b, 8)));
  ModuleSim sim(m);
  sim.set_input("a", 20);
  sim.set_input("b", 22);
  sim.settle();
  EXPECT_EQ(sim.get("sum"), 42u);
}

TEST(Eval, ChainedAssignsOrderedTopologically) {
  Module m("t");
  int a = m.add_input("a", 8);
  int y = m.add_output("y", 8);
  int mid = m.add_wire("mid", 8);
  // Declare the dependent assign first to exercise topological sorting.
  m.assign(y, ebin(RtlOp::Add, eref(mid, 8), econst(1, 8)));
  m.assign(mid, ebin(RtlOp::Add, eref(a, 8), econst(1, 8)));
  ModuleSim sim(m);
  sim.set_input("a", 5);
  sim.settle();
  EXPECT_EQ(sim.get("y"), 7u);
}

TEST(Eval, CombinationalCycleRejected) {
  Module m("t");
  int x = m.add_wire("x", 1);
  int y = m.add_wire("y", 1);
  m.assign(x, eref(y, 1));
  m.assign(y, eref(x, 1));
  EXPECT_THROW(ModuleSim sim(m), std::runtime_error);
}

TEST(Eval, UndrivenNetReadsAsZero) {
  Module m("t");
  const int ghost = m.add_wire("ghost", 1);
  const int a = m.add_input("a", 1);
  const int out = m.add_output("out", 1);
  m.assign(out, ebin(RtlOp::Or, eref(a, 1), eref(ghost, 1)));
  ModuleSim sim(m);
  sim.set_input("a", 0);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 0u);
}

TEST(Eval, RegisterUpdatesOnStep) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  int d = m.add_input("d", 8);
  int q = m.add_output_reg("q", 8);
  m.seq(q, eref(d, 8));
  ModuleSim sim(m);
  sim.reset();
  sim.set_input("d", 7);
  EXPECT_EQ(sim.get("q"), 0u);
  sim.step();
  EXPECT_EQ(sim.get("q"), 7u);
}

TEST(Eval, EnableGatesRegister) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  int en = m.add_input("en", 1);
  int q = m.add_output_reg("q", 8);
  m.seq(q, ebin(RtlOp::Add, eref(q, 8), econst(1, 8)), eref(en, 1));
  ModuleSim sim(m);
  sim.reset();
  sim.set_input("en", 0);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.get("q"), 0u);
  sim.set_input("en", 1);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.get("q"), 2u);
}

TEST(Eval, ResetValueApplied) {
  Module m("t");
  (void)m.clk();
  (void)m.rst();
  int q = m.add_output_reg("q", 8);
  m.seq(q, ebin(RtlOp::Add, eref(q, 8), econst(1, 8)), nullptr,
        /*reset_value=*/9);
  ModuleSim sim(m);
  sim.reset();
  EXPECT_EQ(sim.get("q"), 9u);
}

TEST(Eval, MemoryReadFirstSemantics) {
  Module m("t");
  (void)m.clk();
  int we = m.add_input("we", 1);
  int addr = m.add_input("addr", 4);
  int wdata = m.add_input("wdata", 8);
  int rdata = m.add_output_reg("rdata", 8);
  Memory& mem = m.add_memory("ram", 8, 16);
  MemoryPort port;
  port.addr = eref(addr, 4);
  port.write_enable = eref(we, 1);
  port.write_data = eref(wdata, 8);
  port.read_data = rdata;
  mem.ports.push_back(std::move(port));

  ModuleSim sim(m);
  sim.write_mem("ram", 3, 55);
  sim.set_input("addr", 3);
  sim.set_input("we", 1);
  sim.set_input("wdata", 99);
  sim.step();
  // Read-first: the read captured the old value while the write landed.
  EXPECT_EQ(sim.get("rdata"), 55u);
  EXPECT_EQ(sim.read_mem("ram", 3), 99u);
  sim.set_input("we", 0);
  sim.step();
  EXPECT_EQ(sim.get("rdata"), 99u);
}

TEST(Eval, DualPortMemoryIndependentPorts) {
  Module m("t");
  (void)m.clk();
  int we = m.add_input("we", 1);
  int waddr = m.add_input("waddr", 4);
  int wdata = m.add_input("wdata", 8);
  int raddr = m.add_input("raddr", 4);
  int rdata = m.add_output_reg("rdata", 8);
  Memory& mem = m.add_memory("ram", 8, 16);
  {
    MemoryPort w;
    w.addr = eref(waddr, 4);
    w.write_enable = eref(we, 1);
    w.write_data = eref(wdata, 8);
    mem.ports.push_back(std::move(w));
  }
  {
    MemoryPort r;
    r.addr = eref(raddr, 4);
    r.read_data = rdata;
    mem.ports.push_back(std::move(r));
  }
  ModuleSim sim(m);
  sim.set_input("we", 1);
  sim.set_input("waddr", 5);
  sim.set_input("wdata", 123);
  sim.set_input("raddr", 5);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.get("rdata"), 123u);
}

TEST(Eval, SliceConcatMux) {
  Module m("t");
  int in = m.add_input("in", 8);
  int sel = m.add_input("sel", 1);
  int out = m.add_output("out", 8);
  // out = sel ? {in[3:0], in[7:4]} : in
  std::vector<RtlExprPtr> parts;
  parts.push_back(eslice(eref(in, 8), 3, 0));
  parts.push_back(eslice(eref(in, 8), 7, 4));
  m.assign(out, emux(eref(sel, 1), econcat(std::move(parts)), eref(in, 8)));
  ModuleSim sim(m);
  sim.set_input("in", 0xA5);
  sim.set_input("sel", 0);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 0xA5u);
  sim.set_input("sel", 1);
  sim.settle();
  EXPECT_EQ(sim.get("out"), 0x5Au);
}

TEST(Eval, ReduceOps) {
  Module m("t");
  int in = m.add_input("in", 4);
  int any = m.add_output("any", 1);
  int all = m.add_output("all", 1);
  m.assign(any, ereduce_or(eref(in, 4)));
  m.assign(all, ereduce_and(eref(in, 4)));
  ModuleSim sim(m);
  sim.set_input("in", 0);
  sim.settle();
  EXPECT_EQ(sim.get("any"), 0u);
  EXPECT_EQ(sim.get("all"), 0u);
  sim.set_input("in", 0xF);
  sim.settle();
  EXPECT_EQ(sim.get("any"), 1u);
  EXPECT_EQ(sim.get("all"), 1u);
  sim.set_input("in", 0x4);
  sim.settle();
  EXPECT_EQ(sim.get("any"), 1u);
  EXPECT_EQ(sim.get("all"), 0u);
}

TEST(Eval, UnknownNetThrows) {
  Module m("t");
  m.add_input("a", 1);
  ModuleSim sim(m);
  EXPECT_THROW((void)sim.get("nope"), std::runtime_error);
  EXPECT_THROW((void)sim.read_mem("nope", 0), std::runtime_error);
}

}  // namespace
}  // namespace hicsync::rtl
