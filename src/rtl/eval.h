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
//
// Nets are addressed by handle: find_net() resolves a name once, and
// set_input()/get() take the id. The string overloads are thin wrappers for
// tests and one-off probes.
//
// step() settles before its clock edge only when an input or memory word
// changed since the last settle. Settling is a pure function of inputs,
// registers and memories, so otherwise it could change nothing: a caller
// that settles, reads outputs and then steps (what SystemSim does every
// cycle) pays for two settles per cycle, not three.
//
// Instances are not elaborated — generators emit flat controller modules.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::rtl {

struct SimOptions {
  /// When set, construction scans every expression site (continuous assign
  /// values, sequential next-state/enable expressions, memory port address/
  /// write-enable/write-data) for references to nets that nothing drives —
  /// not an input port, not a continuous or sequential target, not a memory
  /// read port. Such reads silently evaluate as 0 in the default mode,
  /// masking exactly the wiring bugs hic-nlint reports statically; strict
  /// mode throws std::runtime_error naming the net and the reading site.
  bool strict_undriven = false;
};

class ModuleSim {
 public:
  /// Lowers the module to its tapes. Throws std::runtime_error on
  /// combinational cycles or unsupported features (instances).
  explicit ModuleSim(const Module& module);
  ModuleSim(const Module& module, const SimOptions& options);

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

 private:
  enum class Op : std::uint8_t {
    Mov, Slice, ShlOr, Not, And, Or, Xor, Add, Sub,
    Eq, Ne, Lt, Le, Shl, Shr, Mux, ReduceOr, ReduceAnd,
  };
  /// slots[dst] = op(slots[a], slots[b], slots[c], shift), masked to its
  /// low `bits` bits. Slice shifts right by `shift`, ShlOr computes
  /// (a << shift) | (b & c) (one Concat part), ReduceAnd compares a & b
  /// with b.
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
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  void lower(const Module& module);
  [[nodiscard]] std::uint32_t lower_expr(const RtlExpr& e, std::uint32_t top,
                                         std::vector<Instr>& tape);
  void lower_root(const RtlExpr& e, std::uint32_t dst, int width,
                  std::uint32_t top, std::vector<Instr>& tape);
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
  std::vector<SeqCommit> seq_commits_;
  std::vector<PortCommit> port_commits_;
  std::vector<MemoryState> memories_;
  std::map<std::string, int> names_;
  std::uint32_t rst_ = kNoSlot;
  bool dirty_ = false;
  std::uint64_t cycles_ = 0;
};

}  // namespace hicsync::rtl
