// RTL netlist intermediate representation.
//
// The design flow of §3 emits "a RTL HDL description ... fed into standard
// synthesis, place, and route tools". This IR is the target of the memory
// organization generators and the thread FSM lowering; it is emitted as
// Verilog-2001 (rtl/verilog.h) and technology-mapped for area/timing
// estimation (fpga/techmap.h).
//
// Model: a Module owns nets (wires/regs), continuous assignments,
// synchronous register assignments (single clock domain, synchronous active-
// high reset) and inferred memories (BRAM candidates). Modules are flat: a
// design is a list of modules that never instantiate one another.
// Expressions are owned trees over net references and constants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace hicsync::rtl {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class RtlOp {
  Const,     // literal value
  Ref,       // net reference
  Slice,     // arg0[hi:lo]
  Concat,    // {arg0, arg1, ...} (arg0 = MSBs)
  Not,       // ~arg0
  And, Or, Xor,
  Add, Sub,
  Eq, Ne, Lt, Le,   // unsigned comparisons, 1-bit result
  Shl, Shr,         // shift by constant (arg1 must be Const)
  Mux,       // arg0 ? arg1 : arg2
  ReduceOr,  // |arg0 -> 1 bit
  ReduceAnd, // &arg0 -> 1 bit
};

struct RtlExpr;
using RtlExprPtr = std::unique_ptr<RtlExpr>;

struct RtlExpr {
  RtlOp op = RtlOp::Const;
  int width = 1;
  std::uint64_t value = 0;  // Const
  int net = -1;             // Ref
  int lo = 0, hi = 0;       // Slice

  std::vector<RtlExprPtr> args;

  [[nodiscard]] RtlExprPtr clone() const;
};

// Factories. Widths are computed from operands where implied.
[[nodiscard]] RtlExprPtr econst(std::uint64_t value, int width);
[[nodiscard]] RtlExprPtr eref(int net, int width);
[[nodiscard]] RtlExprPtr eslice(RtlExprPtr v, int hi, int lo);
[[nodiscard]] RtlExprPtr econcat(std::vector<RtlExprPtr> parts);
[[nodiscard]] RtlExprPtr enot(RtlExprPtr v);
[[nodiscard]] RtlExprPtr ebin(RtlOp op, RtlExprPtr a, RtlExprPtr b);
[[nodiscard]] RtlExprPtr emux(RtlExprPtr sel, RtlExprPtr when_true,
                              RtlExprPtr when_false);
[[nodiscard]] RtlExprPtr ereduce_or(RtlExprPtr v);
[[nodiscard]] RtlExprPtr ereduce_and(RtlExprPtr v);

// ---------------------------------------------------------------------------
// Module structure
// ---------------------------------------------------------------------------

enum class NetKind { Wire, Reg };
enum class PortDir { Input, Output };

struct Net {
  int id = -1;
  std::string name;
  int width = 1;
  NetKind kind = NetKind::Wire;
};

struct Port {
  std::string name;
  PortDir dir = PortDir::Input;
  int net = -1;
};

/// Continuous assignment: assign target = value.
struct ContAssign {
  int target = -1;
  RtlExprPtr value;
};

/// Synchronous assignment inside the single always @(posedge clk) block:
///   if (enable) target <= value;  with reset to reset_value when rst.
struct SeqAssign {
  int target = -1;
  RtlExprPtr enable;  // nullptr = always enabled
  RtlExprPtr value;
  std::uint64_t reset_value = 0;
  bool has_reset = true;
};

/// Synchronous memory (BRAM inference candidate). Each port is sync-read
/// and/or sync-write, mirroring a physical BRAM port.
struct MemoryPort {
  RtlExprPtr addr;
  RtlExprPtr write_enable;  // nullptr = read-only port
  RtlExprPtr write_data;
  int read_data = -1;       // net receiving the registered read value; -1 = write-only
};

struct Memory {
  std::string name;
  int width = 1;
  int depth = 1;
  std::vector<MemoryPort> ports;
};

/// Structural claim recorded by a builder primitive: the listed 1-bit nets
/// are intended to be mutually exclusive (at most one high per cycle).
/// build_onehot_mux and friends *assume* this; hic-nlint discharges it.
struct OneHotClaim {
  std::vector<int> nets;
  std::string origin;  // e.g. "round-robin arbiter 'c_arb'"
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // Net/port creation. Names are uniquified if reused.
  int add_wire(const std::string& name, int width);
  int add_reg(const std::string& name, int width);
  int add_input(const std::string& name, int width);
  int add_output(const std::string& name, int width);  // wire output
  int add_output_reg(const std::string& name, int width);

  void assign(int target, RtlExprPtr value);
  void seq(int target, RtlExprPtr value, RtlExprPtr enable = nullptr,
           std::uint64_t reset_value = 0, bool has_reset = true);
  Memory& add_memory(const std::string& name, int width, int depth);

  /// The conventional clock/reset inputs; created on first use.
  int clk();
  int rst();

  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }
  [[nodiscard]] const Net& net(int id) const {
    return nets_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
  [[nodiscard]] const std::vector<ContAssign>& assigns() const {
    return assigns_;
  }
  [[nodiscard]] const std::vector<SeqAssign>& seqs() const { return seqs_; }
  [[nodiscard]] const std::vector<Memory>& memories() const {
    return memories_;
  }

  /// Records a mutual-exclusion claim over 1-bit nets (deduplicated on the
  /// net set; claims with fewer than two nets are trivially true and
  /// dropped). Builder primitives call this; hic-nlint proves the claims.
  void claim_onehot(std::vector<int> nets, std::string origin);
  [[nodiscard]] const std::vector<OneHotClaim>& onehot_claims() const {
    return onehot_claims_;
  }

  /// Total register bits (flip-flops) directly in this module.
  [[nodiscard]] int flipflop_bits() const;

  /// Checks: single driver per net, widths consistent, targets are the
  /// right kind. Returns true and leaves `error` empty on success.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

 private:
  int add_net(const std::string& name, int width, NetKind kind);
  /// `base`, or the first of base_1, base_2, ... no net is named yet.
  std::string unique_name(const std::string& base);
  [[nodiscard]] bool name_taken(const std::string& name) const;
  /// Adds nets_[id] to name_index_.
  void index_net(std::size_t id);

  std::string name_;
  std::vector<Net> nets_;
  // Open-addressed hash index of nets_ by name: each slot holds a net id
  // plus one (0 = empty); a power of two in size, at most half full.
  std::vector<std::uint32_t> name_index_;
  std::unordered_map<std::string, int> next_suffix_;  // per reused base
  std::vector<Port> ports_;
  std::vector<ContAssign> assigns_;
  std::vector<SeqAssign> seqs_;
  std::vector<Memory> memories_;
  std::vector<OneHotClaim> onehot_claims_;
  int clk_ = -1;
  int rst_ = -1;
};

/// The modules of one compile, in creation order. The first is the top.
class Design {
 public:
  Module& add_module(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<Module>>& modules() const {
    return modules_;
  }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace hicsync::rtl
