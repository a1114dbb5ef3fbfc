// Cycle-stepped functional evaluation of a single RTL module.
//
// Lets tests and the system simulator execute *generated* netlists (the
// memory-organization controllers) rather than a separate behavioural model.
// Memories follow the BRAM read-first convention (a simultaneous read sees
// the old contents).
//
// Construction lowers the module once into two flat instruction tapes over
// one dense uint64_t slot vector: every net first (a net's id is its slot),
// then the module's distinct constants, then temporaries.
//  - The combinational tape evaluates the continuous assigns in topological
//    order; each assign ends in one masked write of its target net.
//  - The edge tape computes every register's next state and enable and
//    every memory port's address, write enable and write data into
//    temporaries. Only then do the registers, the read-first memory reads
//    and the memory writes commit (the later port wins on one address; reset
//    suppresses writes). Memories are held by position and `rst` is
//    resolved once, so a clock edge allocates nothing and looks nothing up.
//  - On both tapes an Or tree (the controllers' one-hot AND-OR muxes and
//    OR trees) lowers to one OrSel instruction over a run of the pair
//    table (select slot, data slot): X & (S ? all-ones : 0) is the pair
//    (S, X), any other term pairs with the constant-1 slot. OrSel ORs the
//    data of every pair whose select is nonzero, as the tree would.
//
// Nets are addressed by handle: find_net() resolves a name once, and
// set_input()/get() take the id. The string overloads are thin wrappers for
// tests and one-off probes.
//
// A clock edge settles first only when an input or memory word changed
// since the last settle. Settling is a pure function of inputs, registers
// and memories, so otherwise it could change nothing. step() settles again
// after the edge, so every net reflects the new state. step_edge() does
// not: registers and memories are current, combinational nets are stale
// until the next settle(). A caller that settles, reads outputs and then
// calls step_edge() every cycle — what SystemSim does — pays for one
// settle per cycle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::rtl {

/// Indices into module.assigns() in evaluation order: each assign after the
/// assigns driving the nets it reads (the last assign to a net drives it).
/// Ties resolve the same way on every call, so the simulator and the
/// technology mapper walk one order. Throws std::runtime_error on a
/// combinational cycle.
[[nodiscard]] std::vector<int> topological_order(const Module& module);

class ModuleSim {
 public:
  /// Lowers the module to its tapes. Throws std::runtime_error on
  /// combinational cycles. A read of a net nothing drives evaluates as 0;
  /// hic-nlint's nlint-undriven-net reports such reads statically.
  explicit ModuleSim(const Module& module);

  /// Handle of a named net (its id in the module). Throws
  /// std::runtime_error if the module has no such net.
  [[nodiscard]] int find_net(const std::string& name) const;

  /// Sets an input port value (masked to the port width).
  void set_input(int net, std::uint64_t value) {
    const auto i = static_cast<std::size_t>(net);
    value &= net_masks_[i];
    if (slots_[i] != value) {
      slots_[i] = value;
      dirty_ = true;
    }
  }
  void set_input(const std::string& name, std::uint64_t value) {
    set_input(find_net(name), value);
  }

  /// Value of any net after the last settle/step.
  [[nodiscard]] std::uint64_t get(int net) const {
    return slots_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    return get(find_net(name));
  }

  /// Re-evaluates combinational logic with current inputs/registers
  /// (no clock edge).
  void settle();

  /// One clock cycle: settle (skipped when nothing changed since the last
  /// settle), commit registers and memory ports, then settle again so
  /// outputs reflect the new state.
  void step();

  /// The clock edge alone: settle only if something changed since the
  /// last settle, then commit registers and memory ports. Registers
  /// (including output registers) and memories read current; other nets
  /// hold their pre-edge values until the next settle(), which the module
  /// is marked as needing. step_edge() then settle() is step().
  void step_edge();

  /// Applies reset for one cycle (rst=1, step, rst=0).
  void reset();

  /// Returns the instance to its just-constructed state: every net and
  /// memory word zeroed, cycle counter cleared, combinational logic
  /// re-settled. Unlike reset(), which only exercises the module's own
  /// reset logic, this also clears BRAM contents — it is what lets a
  /// long-lived simulator (the hic-rt executor pool) recycle a module
  /// between workloads with results identical to a fresh instance.
  void clear_state();

  /// Direct memory access for tests (word address).
  [[nodiscard]] std::uint64_t read_mem(const std::string& mem,
                                       std::size_t addr) const;
  void write_mem(const std::string& mem, std::size_t addr,
                 std::uint64_t value);

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Instruction counts of the combinational and edge tapes.
  [[nodiscard]] std::size_t comb_instructions() const { return comb_.size(); }
  [[nodiscard]] std::size_t edge_instructions() const { return edge_.size(); }

 private:
  enum class Op : std::uint8_t {
    Mov, Slice, ShlOr, Not, And, Or, Xor, Add, Sub,
    Eq, Ne, Lt, Le, Shl, Shr, Mux, ReduceOr, ReduceAnd, OrSel,
  };
  /// slots[dst] = op(slots[a], slots[b], slots[c], shift), masked to its
  /// low `bits` bits. Slice shifts right by `shift`, ShlOr computes
  /// (a << shift) | (b & c) (one Concat part), ReduceAnd compares a & b
  /// with b. OrSel ORs the `c` pairs from pairs_[b]: each pair's data slot
  /// while its select slot is nonzero (its `a` is unused).
  struct Instr {
    Op op = Op::Mov;
    std::uint8_t shift = 0;
    std::uint8_t bits = 64;
    std::uint32_t dst = 0, a = 0, b = 0, c = 0;
  };
  /// A register's commit; `value`/`enable` are edge-tape temporaries.
  struct SeqCommit {
    std::uint32_t target = 0;
    std::uint32_t value = 0;
    std::uint32_t enable = 0;  // kNoSlot = always enabled
    bool has_reset = true;
    std::uint64_t reset_value = 0;
  };
  /// A memory port's commit; every operand is an edge-tape temporary.
  struct PortCommit {
    std::uint32_t memory = 0;        // index into memories_
    std::uint32_t addr = 0;
    std::uint32_t read_data = 0;     // net; kNoSlot = write-only port
    std::uint32_t write_enable = 0;  // kNoSlot = read-only port
    std::uint32_t write_data = 0;
  };
  struct MemoryState {
    std::string name;
    std::uint64_t mask = 0;  // word width
    std::vector<std::uint64_t> words;
  };
  /// One OrSel operand; a plain term's select is the constant-1 slot.
  struct SelPair {
    std::uint32_t sel = 0;
    std::uint32_t data = 0;
  };
  /// A flattened Or term before lowering; `sel` is null for a plain term.
  struct OrTerm {
    const RtlExpr* sel = nullptr;
    const RtlExpr* data = nullptr;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  void lower(const Module& module);
  [[nodiscard]] std::uint32_t lower_expr(const RtlExpr& e, std::uint32_t top,
                                         std::vector<Instr>& tape);
  void lower_root(const RtlExpr& e, std::uint32_t dst, int width,
                  std::uint32_t top, std::vector<Instr>& tape);
  bool lower_or(const RtlExpr& e, std::uint32_t top,
                std::vector<Instr>& tape);
  bool collect_or_terms(const RtlExpr& e, int width);
  [[nodiscard]] OrTerm or_term(const RtlExpr& t) const;
  [[nodiscard]] std::uint32_t constant_slot(std::uint64_t value) const;
  void run(const std::vector<Instr>& tape);
  void clock_edge();
  [[nodiscard]] std::size_t memory_index(const std::string& name) const;

  std::vector<std::uint64_t> slots_;      // nets, constants, temporaries
  std::vector<std::uint64_t> net_masks_;  // per net
  std::vector<std::uint64_t> constants_;  // sorted; slot = nets + index
  std::uint32_t temps_begin_ = 0;
  std::uint32_t slot_count_ = 0;
  std::vector<Instr> comb_;
  std::vector<Instr> edge_;
  std::vector<SelPair> pairs_;    // OrSel operands of both tapes
  std::vector<OrTerm> or_terms_;  // lowering scratch, used as a stack
  std::vector<SeqCommit> seq_commits_;
  std::vector<PortCommit> port_commits_;
  std::vector<MemoryState> memories_;
  std::map<std::string, int> names_;
  std::uint32_t rst_ = kNoSlot;
  bool dirty_ = false;
  std::uint64_t cycles_ = 0;
};

}  // namespace hicsync::rtl
