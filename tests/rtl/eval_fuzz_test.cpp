// Differential fuzz of the netlist evaluator: random expression trees are
// evaluated by ModuleSim and by an independent reference interpreter
// written directly against the RtlOp semantics. Catches masking, topo-sort
// and width bugs. Beyond settling, the clock edge is fuzzed too: random
// registers with enables, reset values and reset-less registers, and a
// two-port memory against a reference BRAM model (read-first, last port
// wins, no writes under reset, address modulo depth).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "rtl/eval.h"
#include "support/rng.h"

namespace hicsync::rtl {
namespace {

struct Gen {
  support::Rng rng;
  Module* m = nullptr;
  std::vector<std::pair<int, int>> inputs;  // net, width

  explicit Gen(std::uint64_t seed) : rng(seed) {}

  RtlExprPtr expr(int depth, int want_width) {
    if (depth == 0 || rng.next_bool(0.25)) {
      // Leaf: input ref (sliced/padded to width) or constant.
      if (!inputs.empty() && rng.next_bool(0.7)) {
        auto [net, w] = inputs[rng.next_below(inputs.size())];
        RtlExprPtr e = eref(net, w);
        if (w > want_width) {
          return eslice(std::move(e), want_width - 1, 0);
        }
        if (w < want_width) {
          std::vector<RtlExprPtr> parts;
          parts.push_back(econst(0, want_width - w));
          parts.push_back(std::move(e));
          return econcat(std::move(parts));
        }
        return e;
      }
      return econst(rng.next_u64(), want_width);
    }
    switch (rng.next_below(13)) {
      case 0:
        return ebin(RtlOp::And, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 1:
        return ebin(RtlOp::Or, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 2:
        return ebin(RtlOp::Xor, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 3:
        return ebin(RtlOp::Add, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 4:
        return ebin(RtlOp::Sub, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 5:
        return enot(expr(depth - 1, want_width));
      case 6: {
        // Mux steered by a 1-bit subexpression.
        return emux(expr(depth - 1, 1), expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      }
      case 7: {
        // Shift by a constant below the width.
        const auto amount =
            rng.next_below(static_cast<std::uint64_t>(want_width));
        return ebin(rng.next_bool(0.5) ? RtlOp::Shl : RtlOp::Shr,
                    expr(depth - 1, want_width), econst(amount, want_width));
      }
      case 8: {
        // Reduction of a narrow subtree, so all-ones is common.
        const int w = 1 + static_cast<int>(rng.next_below(3));
        RtlExprPtr sub = expr(depth - 1, w);
        return widen(rng.next_bool(0.5) ? ereduce_or(std::move(sub))
                                        : ereduce_and(std::move(sub)),
                     want_width);
      }
      case 9: {
        // Slice of a wider subtree.
        const int extra = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(std::min(64 - want_width, 9)) + 1));
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(extra) + 1));
        return eslice(expr(depth - 1, want_width + extra),
                      lo + want_width - 1, lo);
      }
      case 10: {
        // Concatenation of subtrees.
        if (want_width == 1) return expr(depth - 1, 1);
        const int hi_w = 1 + static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(want_width - 1)));
        std::vector<RtlExprPtr> parts;
        parts.push_back(expr(depth - 1, hi_w));
        parts.push_back(expr(depth - 1, want_width - hi_w));
        return econcat(std::move(parts));
      }
      default: {
        // Comparison widened back to the target width.
        static const RtlOp kCmp[] = {RtlOp::Eq, RtlOp::Ne, RtlOp::Lt,
                                     RtlOp::Le};
        return widen(ebin(kCmp[rng.next_below(4)], expr(depth - 1, want_width),
                          expr(depth - 1, want_width)),
                     want_width);
      }
    }
  }

  /// A 1-bit expression zero-extended to `width`.
  static RtlExprPtr widen(RtlExprPtr bit, int width) {
    if (width == 1) return bit;
    std::vector<RtlExprPtr> parts;
    parts.push_back(econst(0, width - 1));
    parts.push_back(std::move(bit));
    return econcat(std::move(parts));
  }
};

std::uint64_t mask_w(std::uint64_t v, int w) {
  return w >= 64 ? v : (v & ((1ULL << w) - 1));
}

/// Independent reference interpreter over input values.
std::uint64_t reference(const RtlExpr& e,
                        const std::map<int, std::uint64_t>& values) {
  switch (e.op) {
    case RtlOp::Const: return e.value;
    case RtlOp::Ref: return values.at(e.net);
    case RtlOp::Slice:
      return mask_w(reference(*e.args[0], values) >> e.lo,
                    e.hi - e.lo + 1);
    case RtlOp::Concat: {
      std::uint64_t v = 0;
      for (const auto& a : e.args) {
        v = (v << a->width) | mask_w(reference(*a, values), a->width);
      }
      return mask_w(v, e.width);
    }
    case RtlOp::Not:
      return mask_w(~reference(*e.args[0], values), e.width);
    case RtlOp::And:
      return mask_w(reference(*e.args[0], values) &
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Or:
      return mask_w(reference(*e.args[0], values) |
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Xor:
      return mask_w(reference(*e.args[0], values) ^
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Add:
      return mask_w(reference(*e.args[0], values) +
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Sub:
      return mask_w(reference(*e.args[0], values) -
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Eq:
      return reference(*e.args[0], values) == reference(*e.args[1], values);
    case RtlOp::Ne:
      return reference(*e.args[0], values) != reference(*e.args[1], values);
    case RtlOp::Lt:
      return reference(*e.args[0], values) < reference(*e.args[1], values);
    case RtlOp::Le:
      return reference(*e.args[0], values) <= reference(*e.args[1], values);
    case RtlOp::Shl:
      return mask_w(reference(*e.args[0], values)
                        << reference(*e.args[1], values),
                    e.width);
    case RtlOp::Shr:
      return mask_w(reference(*e.args[0], values) >>
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::ReduceOr:
      return reference(*e.args[0], values) != 0;
    case RtlOp::ReduceAnd: {
      const int w = e.args[0]->width;
      return mask_w(reference(*e.args[0], values), w) == mask_w(~0ULL, w);
    }
    case RtlOp::Mux:
      return mask_w(reference(*e.args[0], values) != 0
                        ? reference(*e.args[1], values)
                        : reference(*e.args[2], values),
                    e.width);
    default:
      ADD_FAILURE() << "unexpected op in fuzz tree";
      return 0;
  }
}

class EvalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EvalFuzz, ModuleSimMatchesReference) {
  Gen gen(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  Module m("fuzz");
  gen.m = &m;
  const int widths[] = {1, 7, 8, 13, 32, 33};
  for (int i = 0; i < 4; ++i) {
    int w = widths[gen.rng.next_below(6)];
    int net = m.add_input("in" + std::to_string(i), w);
    gen.inputs.emplace_back(net, w);
  }
  // Several independent outputs with random trees.
  std::vector<std::pair<std::string, RtlExprPtr>> trees;
  for (int o = 0; o < 5; ++o) {
    int w = widths[gen.rng.next_below(6)];
    RtlExprPtr tree = gen.expr(4, w);
    int out = m.add_output("out" + std::to_string(o), w);
    trees.emplace_back("out" + std::to_string(o), tree->clone());
    m.assign(out, std::move(tree));
  }
  ModuleSim sim(m);
  for (int round = 0; round < 20; ++round) {
    std::map<int, std::uint64_t> values;
    for (auto [net, w] : gen.inputs) {
      std::uint64_t v = mask_w(gen.rng.next_u64(), w);
      values[net] = v;
      sim.set_input(m.net(net).name, v);
    }
    sim.settle();
    for (const auto& [name, tree] : trees) {
      ASSERT_EQ(sim.get(name), reference(*tree, values))
          << "seed " << GetParam() << " round " << round << " " << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalFuzz, ::testing::Range(1, 13));

/// Random registers (enables, reset values, reset-less ones), wires
/// between them and combinational outputs over inputs, registers and wires,
/// stepped with random inputs and resets, with or without a settle() before
/// the step; the reference computes every next state from the pre-edge
/// values.
class EvalFuzzEdge : public ::testing::TestWithParam<int> {};

TEST_P(EvalFuzzEdge, ClockEdgeMatchesReference) {
  Gen gen(static_cast<std::uint64_t>(GetParam()) * 40503u + 7);
  Module m("fuzz_edge");
  (void)m.clk();
  const int rst = m.rst();
  const int widths[] = {1, 3, 8, 13, 32, 33};
  for (int i = 0; i < 3; ++i) {
    const int w = widths[gen.rng.next_below(6)];
    gen.inputs.emplace_back(m.add_input("in" + std::to_string(i), w), w);
  }
  const std::size_t num_inputs = gen.inputs.size();
  struct Reg {
    int net = -1;
    int width = 1;
    RtlExprPtr value;
    RtlExprPtr enable;  // null = always enabled
    std::uint64_t reset_value = 0;
    bool has_reset = true;
  };
  std::vector<Reg> regs(5);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    regs[i].width = widths[gen.rng.next_below(6)];
    regs[i].net = m.add_reg("r" + std::to_string(i), regs[i].width);
    gen.inputs.emplace_back(regs[i].net, regs[i].width);
  }
  // Wires feed registers and outputs, so a step must settle new inputs
  // through them before its clock edge.
  std::vector<std::pair<int, RtlExprPtr>> wires;
  for (int k = 0; k < 3; ++k) {
    const int w = widths[gen.rng.next_below(6)];
    RtlExprPtr tree = gen.expr(2, w);
    const int net = m.add_wire("w" + std::to_string(k), w);
    m.assign(net, tree->clone());
    wires.emplace_back(net, std::move(tree));
    gen.inputs.emplace_back(net, w);
  }
  for (Reg& r : regs) {
    r.value = gen.expr(3, r.width);
    if (gen.rng.next_bool(0.6)) r.enable = gen.expr(2, 1);
    r.reset_value = mask_w(gen.rng.next_u64(), r.width);
    r.has_reset = gen.rng.next_bool(0.7);
    m.seq(r.net, r.value->clone(), r.enable ? r.enable->clone() : nullptr,
          r.reset_value, r.has_reset);
  }
  std::vector<std::pair<int, RtlExprPtr>> outputs;
  for (int o = 0; o < 3; ++o) {
    const int w = widths[gen.rng.next_below(6)];
    RtlExprPtr tree = gen.expr(3, w);
    const int out = m.add_output("out" + std::to_string(o), w);
    m.assign(out, tree->clone());
    outputs.emplace_back(out, std::move(tree));
  }

  ModuleSim sim(m);
  std::map<int, std::uint64_t> values;  // inputs, registers and wires
  for (const auto& [net, w] : gen.inputs) values[net] = 0;
  auto settle_wires = [&] {
    for (const auto& [net, tree] : wires) {
      values[net] = reference(*tree, values);
    }
  };
  int resets = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const auto [net, w] = gen.inputs[i];
      values[net] = mask_w(gen.rng.next_u64(), w);
      sim.set_input(net, values[net]);
    }
    const bool in_reset = gen.rng.next_bool(0.15);
    resets += in_reset ? 1 : 0;
    sim.set_input(rst, in_reset ? 1 : 0);
    if (gen.rng.next_bool(0.5)) sim.settle();
    sim.step();

    settle_wires();
    std::vector<std::uint64_t> next;
    for (const Reg& r : regs) {
      if (in_reset && r.has_reset) {
        next.push_back(r.reset_value);
      } else if (r.enable != nullptr && reference(*r.enable, values) == 0) {
        next.push_back(values[r.net]);
      } else {
        next.push_back(mask_w(reference(*r.value, values), r.width));
      }
    }
    for (std::size_t i = 0; i < regs.size(); ++i) {
      values[regs[i].net] = next[i];
      ASSERT_EQ(sim.get(regs[i].net), next[i])
          << "seed " << GetParam() << " cycle " << cycle << " r" << i;
    }
    settle_wires();
    for (const auto& [net, tree] : wires) {
      ASSERT_EQ(sim.get(net), values[net])
          << "seed " << GetParam() << " cycle " << cycle << " "
          << m.net(net).name;
    }
    for (const auto& [net, tree] : outputs) {
      ASSERT_EQ(sim.get(net), reference(*tree, values))
          << "seed " << GetParam() << " cycle " << cycle << " "
          << m.net(net).name;
    }
  }
  EXPECT_GT(resets, 0) << "seed " << GetParam() << " never reset";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalFuzzEdge, ::testing::Range(1, 13));

/// A two-port memory against a reference BRAM: both ports read the
/// pre-edge word, port 1's write wins over port 0's on one address, reset
/// suppresses writes (not reads), and addresses wrap modulo the depth.
class EvalFuzzMemory : public ::testing::TestWithParam<int> {};

TEST_P(EvalFuzzMemory, TwoPortMemoryMatchesReference) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 69069u + 1);
  constexpr int kWidth = 13;
  constexpr int kDepth = 5;  // 4-bit addresses wrap
  Module m("fuzz_mem");
  (void)m.clk();
  const int rst = m.rst();
  Memory& mem = m.add_memory("ram", kWidth, kDepth);
  struct PortNets {
    int addr, we, wdata, rdata;
  };
  std::vector<PortNets> ports;
  for (int p = 0; p < 2; ++p) {
    const std::string i = std::to_string(p);
    PortNets n{m.add_input("addr" + i, 4), m.add_input("we" + i, 1),
               m.add_input("wdata" + i, 16), m.add_reg("rdata" + i, kWidth)};
    // The address reaches the port through a wire, which a step settles.
    const int addr_wire = m.add_wire("addr_w" + i, 4);
    m.assign(addr_wire, eref(n.addr, 4));
    MemoryPort port;
    port.addr = eref(addr_wire, 4);
    port.write_enable = eref(n.we, 1);
    port.write_data = eref(n.wdata, 16);  // wider than a word: masked
    port.read_data = n.rdata;
    mem.ports.push_back(std::move(port));
    ports.push_back(n);
  }

  ModuleSim sim(m);
  std::vector<std::uint64_t> words(kDepth);
  for (std::size_t a = 0; a < words.size(); ++a) {
    words[a] = rng.next_u64();  // unmasked: reads mask to the word width
    sim.write_mem("ram", a, words[a]);
  }
  const std::uint64_t word_mask = mask_w(~0ULL, kWidth);
  int collisions = 0;
  int suppressed = 0;
  int wraps = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::uint64_t addr[2];
    std::uint64_t we[2];
    std::uint64_t wdata[2];
    addr[0] = rng.next_below(16);
    // Half the time, port 1 aliases port 0's word through another address.
    addr[1] = rng.next_bool(0.5)
                  ? (addr[0] % kDepth) + kDepth * rng.next_below(3)
                  : rng.next_below(16);
    const bool in_reset = rng.next_bool(0.1);
    for (int p = 0; p < 2; ++p) {
      we[p] = rng.next_bool(0.6) ? 1 : 0;
      wdata[p] = mask_w(rng.next_u64(), 16);
      sim.set_input(ports[p].addr, addr[p]);
      sim.set_input(ports[p].we, we[p]);
      sim.set_input(ports[p].wdata, wdata[p]);
      wraps += addr[p] >= kDepth ? 1 : 0;
    }
    sim.set_input(rst, in_reset ? 1 : 0);
    if (rng.next_bool(0.5)) sim.settle();
    sim.step();

    std::uint64_t expect_read[2];
    for (int p = 0; p < 2; ++p) {
      expect_read[p] = words[addr[p] % kDepth] & word_mask;
    }
    if (in_reset) {
      suppressed += (we[0] | we[1]) != 0 ? 1 : 0;
    } else {
      for (int p = 0; p < 2; ++p) {
        if (we[p] != 0) words[addr[p] % kDepth] = wdata[p] & word_mask;
      }
      collisions += we[0] != 0 && we[1] != 0 &&
                            addr[0] % kDepth == addr[1] % kDepth
                        ? 1
                        : 0;
    }
    for (int p = 0; p < 2; ++p) {
      ASSERT_EQ(sim.get(ports[p].rdata), expect_read[p])
          << "seed " << GetParam() << " cycle " << cycle << " port " << p;
    }
    for (std::size_t a = 0; a < words.size(); ++a) {
      ASSERT_EQ(sim.read_mem("ram", a), words[a])
          << "seed " << GetParam() << " cycle " << cycle << " word " << a;
    }
  }
  EXPECT_GT(collisions, 0);
  EXPECT_GT(suppressed, 0);
  EXPECT_GT(wraps, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalFuzzMemory, ::testing::Range(1, 5));

}  // namespace
}  // namespace hicsync::rtl
