// Technology mapping: RTL netlist → LUT4 / FF / slice / depth estimate.
//
// Substitute for the Xilinx ISE 6.3 synthesis+P&R flow of §4 (see
// DESIGN.md): the generated controller modules are bit-blasted into a
// boolean gate DAG, covered into 4-input LUTs with a greedy fanout-1 cone
// heuristic, and packed into Virtex-II Pro slices (2 LUTs + 2 FFs each).
// Adders/subtractors/magnitude comparators map onto dedicated carry chains
// (one LUT per bit, no level growth along the chain), as ISE does.
//
// Data layout: continuous assigns are blasted in rtl::topological_order,
// the simulator's order. Gate nodes keep their fanins inline (at most 4: a
// reduce-tree group; mux and carry nodes have 3). Every net's bits live in
// one pool indexed through a per-net offset, and each expression is blasted
// into one reusable bit buffer, its operands folded in place. Cover grows
// each cone in fixed arrays (≤4 leaves; a tentative merge ≤7).
//
// LUT counts and logic levels depend on the order of leaves inside each
// cone, so gate creation order is part of the model, quirks included: an
// Eq/Ne creates every per-bit XNOR before it meets a constant-false bit,
// and those dangling gates are counted. tests/fpga/golden/ pins MapResult
// for the example, fan-out and random module corpora.
#pragma once

#include <string>

#include "fpga/device.h"
#include "rtl/netlist.h"

namespace hicsync::fpga {

struct MapResult {
  int luts = 0;        // total LUT4s (including carry-chain LUTs)
  int carry_luts = 0;  // subset on carry chains
  int ffs = 0;         // fabric flip-flops
  int slices = 0;      // packed slices
  int bram_blocks = 0; // 18 Kbit primitives inferred from memories
  int logic_levels = 0;      // LUT levels on the deepest comb path
  int max_carry_bits = 0;    // longest carry chain crossed by that path

  [[nodiscard]] std::string str() const;
};

class TechMapper {
 public:
  explicit TechMapper(const Virtex2ProDevice& device = xc2vp20())
      : device_(device) {}

  /// Maps one module. Throws std::runtime_error on unsupported constructs
  /// (non-constant shift amounts).
  [[nodiscard]] MapResult map(const rtl::Module& module) const;

 private:
  const Virtex2ProDevice& device_;
};

}  // namespace hicsync::fpga
