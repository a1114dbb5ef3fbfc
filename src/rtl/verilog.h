// Verilog-2001 emission from the RTL netlist IR.
//
// Output conventions: one always @(posedge clk) block per module gathering
// all sequential assignments with a synchronous active-high reset; memories
// emitted in the BRAM-inference idiom Xilinx synthesis recognizes
// (sync-write, sync-read register per port).
#pragma once

#include <string>

#include "rtl/netlist.h"

namespace hicsync::rtl {

/// Emits one module.
[[nodiscard]] std::string emit_module(const Module& module);

/// Emits every module of the design, the top (first) module last.
[[nodiscard]] std::string emit_design(const Design& design);

/// Renders an expression as a Verilog rvalue (exposed for tests).
[[nodiscard]] std::string emit_expr(const Module& module, const RtlExpr& e);

}  // namespace hicsync::rtl
