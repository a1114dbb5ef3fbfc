// Differential golden of the technology mapper: one MapResult::str() line
// per mapped module, compared byte for byte with tests/fpga/golden/.
//
// The corpus is every controller the compiler generates for examples/*.hic,
// the IP forwarder and the Table 1/2 fan-outs under both organizations,
// plus seeded random flat modules that reach every RtlOp and the mapper's
// edge cases: Eq/Ne against constants with a mismatching bit, comparisons
// of unequal widths, slices and shifts past the operand's width, multi-bit
// mux selects, reductions over constants, intermediates read more than
// once, double-driven nets, and registers, enables and memory ports as
// roots. LUT counts and logic levels depend on the order in which the
// mapper creates and covers its gates, so any reordering shows up here.
//
// Each test also writes its lines to techmap_golden_out/ in the build
// tree. To re-record after an intended change of the area model, copy
// those files over tests/fpga/golden/.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "fpga/techmap.h"
#include "netapp/scenarios.h"
#include "support/rng.h"

namespace hicsync::fpga {
namespace {

using rtl::RtlExprPtr;
using rtl::RtlOp;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::filesystem::path out_dir(HICSYNC_TECHMAP_OUT_DIR);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / (name + ".txt")) << actual;

  const std::filesystem::path golden_path =
      std::filesystem::path(HICSYNC_TECHMAP_GOLDEN_DIR) / (name + ".txt");
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "no golden " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  const std::vector<std::string> want = split_lines(golden.str());
  const std::vector<std::string> got = split_lines(actual);
  std::size_t differing = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w != g && differing++ == 0) first = i;
  }
  ADD_FAILURE() << name << ": " << differing << " of " << want.size()
                << " lines differ; first at line " << first + 1
                << "\n  golden: "
                << (first < want.size() ? want[first] : "<missing>")
                << "\n  actual: "
                << (first < got.size() ? got[first] : "<missing>");
}

/// One line per module of the compiled design, for both organizations.
std::string map_compiled(const std::string& label, const std::string& source) {
  std::string lines;
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    core::CompileOptions options;
    options.organization = org;
    auto result = core::Compiler(options).compile(source);
    EXPECT_TRUE(result->ok()) << label;
    const char* org_name =
        org == sim::OrgKind::Arbitrated ? "arbitrated" : "event-driven";
    for (const auto& module : result->design().modules()) {
      lines += label + " " + org_name + " " + module->name() + ": " +
               TechMapper().map(*module).str() + "\n";
    }
  }
  return lines;
}

TEST(TechMapGolden, Examples) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HICSYNC_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".hic") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  std::string lines;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream source;
    source << in.rdbuf();
    lines += map_compiled(path.filename().string(), source.str());
  }
  expect_golden("examples", lines);
}

TEST(TechMapGolden, IpForwarding) {
  expect_golden("ip_forwarding",
                map_compiled("ip_forwarding", netapp::ip_forwarding_source()));
}

TEST(TechMapGolden, Fanouts) {
  std::string lines;
  for (int consumers : {2, 4, 8, 16, 32}) {
    lines += map_compiled("fanout" + std::to_string(consumers),
                          netapp::fanout_source(consumers));
  }
  expect_golden("fanouts", lines);
}

/// Random flat module generator. Expressions read inputs, registers,
/// memory read nets and earlier wires at their net widths, so operand
/// widths routinely differ from the operator's and the mapper's zero
/// extension and truncation are exercised too. At most one argument of any
/// call draws from the generator, so the modules do not depend on the
/// compiler's argument evaluation order.
struct ModuleGen {
  support::Rng rng;
  std::vector<std::pair<int, int>> readable;  // net, width

  explicit ModuleGen(std::uint64_t seed) : rng(seed) {}

  int below(int bound) {
    const auto b = static_cast<std::uint64_t>(bound);
    return static_cast<int>(rng.next_below(b));
  }

  int width() { return rng.next_bool(0.15) ? 1 + below(40) : 1 + below(10); }

  RtlExprPtr leaf(int w) {
    if (!readable.empty() && rng.next_bool(0.75)) {
      const auto [net, nw] =
          readable[static_cast<std::size_t>(below(static_cast<int>(
              readable.size())))];
      return rtl::eref(net, nw);
    }
    return rtl::econst(rng.next_u64(), w);
  }

  /// `e` zero-extended by `pad` constant-0 bits above it.
  static RtlExprPtr pad_high(RtlExprPtr e, int pad) {
    std::vector<RtlExprPtr> parts;
    parts.push_back(rtl::econst(0, pad));
    parts.push_back(std::move(e));
    return rtl::econcat(std::move(parts));
  }

  RtlExprPtr expr(int depth, int w) {
    if (depth == 0 || rng.next_bool(0.2)) return leaf(w);
    const int d = depth - 1;
    static const RtlOp kBitwise[] = {RtlOp::And, RtlOp::Or, RtlOp::Xor};
    static const RtlOp kEquality[] = {RtlOp::Eq, RtlOp::Ne};
    static const RtlOp kOrder[] = {RtlOp::Lt, RtlOp::Le};
    switch (below(15)) {
      case 0:
      case 1: {
        RtlExprPtr a = expr(d, w);
        RtlExprPtr b = expr(d, rng.next_bool(0.3) ? width() : w);
        return rtl::ebin(kBitwise[below(3)], std::move(a), std::move(b));
      }
      case 2: {
        RtlExprPtr a = expr(d, w);
        RtlExprPtr b = expr(d, w);
        return rtl::ebin(rng.next_bool(0.5) ? RtlOp::Add : RtlOp::Sub,
                         std::move(a), std::move(b));
      }
      case 3:
        return rtl::enot(expr(d, w));
      case 4:
      case 5: {
        // One-bit select, or a multi-bit one of which only bit 0 steers.
        RtlExprPtr sel = expr(d, rng.next_bool(0.7) ? 1 : 2 + below(3));
        RtlExprPtr t = expr(d, w);
        RtlExprPtr f = expr(d, w);
        return rtl::emux(std::move(sel), std::move(t), std::move(f));
      }
      case 6: {
        // Constant shifts, sometimes by the full width or more.
        const int amount = below(w + 3);
        const RtlOp op = rng.next_bool(0.5) ? RtlOp::Shl : RtlOp::Shr;
        return rtl::ebin(op, expr(d, w), rtl::econst(amount, 8));
      }
      case 7: {
        // Reductions, sometimes over a bare constant.
        const int rw = 1 + below(6);
        RtlExprPtr sub = rng.next_bool(0.25) ? rtl::econst(rng.next_u64(), rw)
                                             : expr(d, rw);
        return rng.next_bool(0.5) ? rtl::ereduce_or(std::move(sub))
                                  : rtl::ereduce_and(std::move(sub));
      }
      case 8: {
        // Slices, sometimes reaching past the operand's width.
        RtlExprPtr base = expr(d, w + below(4));
        const int lo = below(w + 2);
        const int hi = lo + below(w);
        return rtl::eslice(std::move(base), hi, lo);
      }
      case 9: {
        std::vector<RtlExprPtr> parts;
        const int n = 2 + below(2);
        for (int i = 0; i < n; ++i) parts.push_back(expr(d, 1 + below(w)));
        return rtl::econcat(std::move(parts));
      }
      case 10: {
        RtlExprPtr a = expr(d, w);
        RtlExprPtr b = expr(d, rng.next_bool(0.3) ? width() : w);
        return rtl::ebin(kEquality[below(2)], std::move(a), std::move(b));
      }
      case 11: {
        // Against a constant, whose high bits may meet constant-0 operand
        // bits: a mismatching bit makes the comparison constant.
        const int pad = below(3);
        RtlExprPtr a = expr(d, w);
        if (pad > 0) a = pad_high(std::move(a), pad);
        RtlExprPtr k = rtl::econst(rng.next_u64(), std::min(a->width, 64));
        if (rng.next_bool(0.5)) std::swap(a, k);
        return rtl::ebin(kEquality[below(2)], std::move(a), std::move(k));
      }
      case 12: {
        RtlExprPtr a = expr(d, w);
        RtlExprPtr b = expr(d, 1 + below(w + 4));
        if (rng.next_bool(0.5)) std::swap(a, b);
        return rtl::ebin(kOrder[below(2)], std::move(a), std::move(b));
      }
      case 13: {
        RtlExprPtr a = expr(d, w);
        const std::uint64_t value = rng.next_u64();
        RtlExprPtr k = rtl::econst(value, 1 + below(w + 2));
        if (rng.next_bool(0.5)) std::swap(a, k);
        return rtl::ebin(kOrder[below(2)], std::move(a), std::move(k));
      }
      default: {
        // An expression read twice: its gates get fanout > 1.
        RtlExprPtr a = expr(d, w);
        RtlExprPtr b = a->clone();
        return rtl::ebin(kBitwise[below(3)], std::move(a), std::move(b));
      }
    }
  }

  rtl::Module build(const std::string& name) {
    rtl::Module m(name);
    readable.clear();
    const bool sequential = rng.next_bool(0.8);
    if (sequential) {
      (void)m.clk();
      (void)m.rst();
    }
    const int inputs = 1 + below(5);
    for (int i = 0; i < inputs; ++i) {
      const int w = width();
      readable.emplace_back(m.add_input("in" + std::to_string(i), w), w);
    }
    std::vector<std::pair<int, int>> regs;
    const int reg_count = sequential ? below(4) : 0;
    for (int i = 0; i < reg_count; ++i) {
      const int w = width();
      const std::string reg_name = "r" + std::to_string(i);
      const int net = rng.next_bool(0.2) ? m.add_output_reg(reg_name, w)
                                         : m.add_reg(reg_name, w);
      regs.emplace_back(net, w);
      readable.emplace_back(net, w);
    }
    std::vector<int> read_nets;
    const bool has_memory = sequential && rng.next_bool(0.35);
    if (has_memory) {
      const int ports = 1 + below(2);
      for (int p = 0; p < ports; ++p) {
        const int w = 1 + below(16);
        const int net = m.add_wire("rd" + std::to_string(p), w);
        read_nets.push_back(net);
        readable.emplace_back(net, w);
      }
    }

    // Wires read only earlier wires, but are assigned in shuffled order so
    // the topological sort decides the mapping order.
    std::vector<rtl::ContAssign> assigns;
    const int wires = 2 + below(12);
    for (int i = 0; i < wires; ++i) {
      const int w = width();
      const int net = m.add_wire("w" + std::to_string(i), w);
      assigns.push_back({net, expr(1 + below(4), w)});
      if (rng.next_bool(0.05)) {
        assigns.push_back({net, expr(1 + below(3), w)});  // a second assign
      }
      readable.emplace_back(net, w);
    }
    const int outputs = 1 + below(3);
    for (int i = 0; i < outputs; ++i) {
      const int w = width();
      const int net = m.add_output("out" + std::to_string(i), w);
      if (rng.next_bool(0.9)) assigns.push_back({net, expr(1 + below(3), w)});
    }
    for (std::size_t i = assigns.size(); i > 1; --i) {
      std::swap(assigns[i - 1],
                assigns[static_cast<std::size_t>(
                    rng.next_below(static_cast<std::uint64_t>(i)))]);
    }
    for (rtl::ContAssign& a : assigns) m.assign(a.target, std::move(a.value));

    for (const auto& [net, w] : regs) {
      RtlExprPtr value = expr(1 + below(4), w);
      RtlExprPtr enable = rng.next_bool(0.5) ? expr(1 + below(2), 1) : nullptr;
      const std::uint64_t reset_value = rng.next_u64();
      m.seq(net, std::move(value), std::move(enable), reset_value,
            rng.next_bool(0.8));
    }
    if (has_memory) {
      const int data_width = 1 + below(16);
      rtl::Memory& mem = m.add_memory("mem", data_width, 16 << below(6));
      for (int net : read_nets) {
        rtl::MemoryPort p;
        const int depth = 1 + below(3);
        p.addr = expr(depth, 4 + below(5));
        if (rng.next_bool(0.6)) {
          p.write_enable = expr(1 + below(2), 1);
          p.write_data = expr(1 + below(3), data_width);
        }
        p.read_data = net;
        mem.ports.push_back(std::move(p));
      }
    }
    return m;
  }
};

TEST(TechMapGolden, RandomModules) {
  std::string lines;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ModuleGen gen(seed * 0x9E3779B97F4A7C15ULL);
    const rtl::Module m = gen.build("rand" + std::to_string(seed));
    lines += m.name() + ": " + TechMapper().map(m).str() + "\n";
  }
  expect_golden("random", lines);
}

}  // namespace
}  // namespace hicsync::fpga
