#include "sim/system.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "memalloc/sizing.h"
#include "support/strings.h"

namespace hicsync::sim {

std::uint64_t DepRound::completion_latency() const {
  std::uint64_t last = produce_grant_cycle;
  for (const auto& [thread, cycle] : consume_cycles) {
    last = std::max(last, cycle);
  }
  return last - produce_grant_cycle;
}

namespace {

/// Mask keeping a value of `type` to its bit width; every bit when the
/// type is unknown or not in 1..63 bits wide.
std::uint64_t type_mask(const hic::Type* type) {
  const int width = type != nullptr ? type->bit_width() : 64;
  return width <= 0 || width >= 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << width) - 1;
}

constexpr std::size_t kNoRound = static_cast<std::size_t>(-1);

}  // namespace

// ---------------------------------------------------------------------------
// Controller: one generated memory organization + its host-side bookkeeping.
// ---------------------------------------------------------------------------

struct SystemSim::Controller {
  /// Simulates the generated controller, with its port map copied in.
  /// `generated` is borrowed: its module, plan and entries.
  explicit Controller(const memorg::GeneratedController& generated)
      : bram_id(generated.bram.id),
        kind(generated.organization),
        bram(&generated.bram),
        plan(&generated.plan),
        entries(&generated.entries),
        sim(std::make_unique<rtl::ModuleSim>(*generated.module)),
        consumer_nets(generated.ports.consumers),
        producer_nets(generated.ports.producers),
        port_a(generated.ports.a),
        bus_rdata(generated.ports.bus_rdata),
        slot(generated.ports.slot) {
    if (kind == OrgKind::EventDriven) slots = memorg::slot_order(*entries);
    sim->reset();
  }

  int bram_id = -1;
  OrgKind kind = OrgKind::Arbitrated;
  const memalloc::BramInstance* bram = nullptr;
  const memalloc::BramPortPlan* plan = nullptr;
  const std::vector<memorg::DepEntry>* entries = nullptr;
  std::unique_ptr<rtl::ModuleSim> sim;

  // Port A host-side sharing: one owner per cycle, rotating for fairness.
  // Threads are named by rank (their position in name order), so sorting
  // the waiters sorts them by name.
  std::vector<int> a_waiters;
  int a_owner = -1;
  std::size_t a_rotate = 0;

  // Event-driven only: the controller's slot order.
  std::vector<memorg::Slot> slots;

  [[nodiscard]] int pseudo_port(const std::string& thread,
                                memalloc::LogicalPort port) const {
    const memalloc::PortClient* c = plan->client_for(thread, port);
    return c != nullptr ? c->pseudo_port : -1;
  }

  /// Slot index of a dependency endpoint (event-driven only); -1 if absent.
  [[nodiscard]] int slot_of(const std::string& dep_id, bool producer,
                            int pseudo_port_index) const {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const memorg::Slot& r = slots[s];
      if (r.is_producer == producer && r.port == pseudo_port_index &&
          (*entries)[static_cast<std::size_t>(r.entry)].id == dep_id) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  // Net handles into the generated module, copied from its port map into
  // contiguous vectors indexed by pseudo-port. A consumer's `grant` is
  // arbitrated-only, and its `ev` (the schedule selecting it) and `slot`
  // event-driven-only (else -1).
  std::vector<memorg::ConsumerPort> consumer_nets;
  std::vector<memorg::ProducerPort> producer_nets;
  memorg::PortA port_a;
  int bus_rdata = -1, slot = -1;
  // Event-driven: the schedule's slot this cycle. `slot` is a register, so
  // it is current before the settle and the settle does not change it.
  int slot_now = -1;
  // Event-driven: the slot last reported as a SlotAdvance event.
  std::int64_t traced_slot = -1;

  [[nodiscard]] const memorg::ConsumerPort& consumer(int pseudo_port) const {
    return consumer_nets[static_cast<std::size_t>(pseudo_port)];
  }
  [[nodiscard]] const memorg::ProducerPort& producer(
      int pseudo_port) const {
    return producer_nets[static_cast<std::size_t>(pseudo_port)];
  }

  /// Whether a pseudo-port other than `ours` won its grant line this cycle
  /// — the ArbitrationLoss / DependencyNotProduced split.
  template <typename Nets>
  [[nodiscard]] bool other_granted(const std::vector<Nets>& nets,
                                   int ours) const {
    for (std::size_t k = 0; k < nets.size(); ++k) {
      if (static_cast<int>(k) != ours && sim->get(nets[k].grant) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Publishes who won the controller this cycle, read from the settled
  /// netlist (the signals the emitted Verilog exposes): an ArbWin per
  /// granted pseudo-port and a SlotAdvance when the event-driven slot
  /// changed. An arbitrated consumer wins on its grant line; an
  /// event-driven one when its slot is selected while its request is up.
  void trace_grants(std::uint64_t cycle, trace::TraceBus& bus) {
    trace::Event e;
    e.cycle = cycle;
    e.controller = bram_id;
    e.kind = trace::EventKind::ArbWin;
    const bool arbitrated = kind == OrgKind::Arbitrated;
    for (std::size_t i = 0; i < consumer_nets.size(); ++i) {
      const memorg::ConsumerPort& c = consumer_nets[i];
      if (arbitrated ? sim->get(c.grant) != 0
                     : sim->get(c.ev) != 0 && sim->get(c.req) != 0) {
        e.port = trace::PortKind::C;
        e.pseudo_port = static_cast<int>(i);
        bus.emit(e);
      }
    }
    for (std::size_t j = 0; j < producer_nets.size(); ++j) {
      if (sim->get(producer_nets[j].grant) != 0) {
        e.port = trace::PortKind::D;
        e.pseudo_port = static_cast<int>(j);
        bus.emit(e);
      }
    }
    if (slot < 0) return;
    const auto now = static_cast<std::int64_t>(sim->get(slot));
    if (now == traced_slot) return;
    traced_slot = now;
    trace::Event se;
    se.cycle = cycle;
    se.controller = bram_id;
    se.kind = trace::EventKind::SlotAdvance;
    se.value = now;
    bus.emit(se);
  }

  void begin_cycle() {
    // Clear all request-style inputs; threads re-assert each cycle.
    for (const memorg::ConsumerPort& c : consumer_nets) {
      sim->set_input(c.req, 0);
    }
    for (const memorg::ProducerPort& d : producer_nets) {
      sim->set_input(d.req, 0);
    }
    sim->set_input(port_a.en, 0);
    sim->set_input(port_a.we, 0);
    if (slot >= 0) slot_now = static_cast<int>(sim->get(slot));
    // Resolve port A ownership among last cycle's waiters.
    if (!a_waiters.empty()) {
      std::sort(a_waiters.begin(), a_waiters.end());
      a_owner = a_waiters[a_rotate % a_waiters.size()];
      ++a_rotate;
    } else {
      a_owner = -1;
    }
    a_waiters.clear();
  }

  /// Thread `rank` asks to use port A this cycle; true if it owns it.
  bool claim_port_a(int rank) {
    if (a_owner < 0) a_owner = rank;  // first claimant wins
    if (a_owner == rank) return true;
    if (std::find(a_waiters.begin(), a_waiters.end(), rank) ==
        a_waiters.end()) {
      a_waiters.push_back(rank);
    }
    return false;
  }

  void release_port_a(int rank) {
    if (a_owner == rank) a_owner = -1;
  }
};

// ---------------------------------------------------------------------------
// Lowered thread FSMs.
//
// Every state of every thread FSM is lowered once, at construction, into a
// StatePlan: one StmtPlan per statement the scheduler put in the state (or
// one for a branch condition). Each memory access in it is a resolved
// MemAccess (controller, placement, role, dependency, pseudo-port, slot);
// each value, condition and index expression is a postfix Tape over the
// thread's dense register slots and the statement's fetched operands.
// ---------------------------------------------------------------------------

namespace {

/// One instruction of a postfix tape. Operators pop their operands, push
/// the result masked by `value`; Const pushes `value`.
struct TapeOp {
  enum class Code : std::uint8_t {
    Const, Reg, Operand,
    Neg, Not, BitNot, Mask,
    Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
    LogAnd, LogOr, Eq, Ne, Lt, Le, Gt, Ge,
    Call,
    // Expressions the simulator cannot evaluate; they throw when reached.
    Unfetched, IndexNotOperand,
  };
  Code code = Code::Const;
  std::uint32_t arg = 0;  // Reg: slot; Operand: index; Call: arg count
  std::uint64_t value = 0;  // Const: the constant; else the result mask
  const hic::Expr* expr = nullptr;  // Call and the throwing codes
};
using Tape = std::vector<TapeOp>;

TapeOp::Code unary_code(hic::UnaryOp op) {
  switch (op) {
    case hic::UnaryOp::Neg: return TapeOp::Code::Neg;
    case hic::UnaryOp::Not: return TapeOp::Code::Not;
    case hic::UnaryOp::BitNot: return TapeOp::Code::BitNot;
  }
  return TapeOp::Code::Neg;
}

TapeOp::Code binary_code(hic::BinaryOp op) {
  using B = hic::BinaryOp;
  using C = TapeOp::Code;
  switch (op) {
    case B::Add: return C::Add;
    case B::Sub: return C::Sub;
    case B::Mul: return C::Mul;
    case B::Div: return C::Div;
    case B::Mod: return C::Mod;
    case B::And: return C::And;
    case B::Or: return C::Or;
    case B::Xor: return C::Xor;
    case B::Shl: return C::Shl;
    case B::Shr: return C::Shr;
    case B::LogAnd: return C::LogAnd;
    case B::LogOr: return C::LogOr;
    case B::Eq: return C::Eq;
    case B::Ne: return C::Ne;
    case B::Lt: return C::Lt;
    case B::Le: return C::Le;
    case B::Gt: return C::Gt;
    case B::Ge: return C::Ge;
  }
  return C::Add;
}

bool is_memory_leaf(const hic::Expr& e) {
  return (e.kind == hic::ExprKind::VarRef ||
          e.kind == hic::ExprKind::Index ||
          e.kind == hic::ExprKind::Member) &&
         e.symbol != nullptr && memalloc::is_memory_resident(*e.symbol);
}

bool expr_reads_memory(const hic::Expr& e) {
  if (is_memory_leaf(e)) return true;
  for (const auto& op : e.operands) {
    if (expr_reads_memory(*op)) return true;
  }
  return false;
}

/// One memory access of a lowered state, resolved down to the controller
/// port it drives.
struct MemAccess {
  enum class Stage {
    Idle,
    PortA,       // waiting to own / issue on port A
    PortA_Data,  // port A read issued, data next cycle
    Request,     // arbitrated C/D request outstanding
    WaitValid,   // waiting for read data valid
    EvWaitSlot,  // event-driven: waiting for our slot
    Done,
  };
  SystemSim::Controller* ctrl = nullptr;
  bool is_write = false;
  synth::AccessRole role = synth::AccessRole::Plain;
  const hic::Dependency* dep = nullptr;
  std::size_t dep_index = 0;  // into SystemSim::open_round_
  int pseudo_port = -1;       // C/D accesses
  int target_slot = -1;       // event-driven C/D accesses
  Stage first = Stage::PortA;
  // Word address: base, or base + (index % elements) * words_per_element
  // when `indexed`.
  std::uint64_t base = 0;
  std::uint64_t words_per_element = 1;
  std::uint64_t elements = 1;
  bool indexed = false;
  Tape index;
  std::uint64_t wdata_mask = ~std::uint64_t{0};
  /// When not empty, starting the access throws this (a symbol without a
  /// placement, or an index expression that reads memory).
  std::string error;
};

struct StmtPlan {
  bool branch = false;  // evaluates a branch condition, writes nothing
  Tape value;           // value or condition
  std::vector<MemAccess> operands;  // fetched in order before `value` runs
  enum class Target { None, Register, Memory } target = Target::None;
  std::uint32_t reg_slot = 0;
  std::uint64_t reg_mask = ~std::uint64_t{0};
  MemAccess write;
};

struct StatePlan {
  const synth::FsmState* state = nullptr;
  std::vector<StmtPlan> stmts;
  /// When not empty, entering the state throws this.
  std::string error;
};

}  // namespace

// ---------------------------------------------------------------------------
// ThreadExec: one thread's lowered FSM and its execution state.
// ---------------------------------------------------------------------------

struct SystemSim::ThreadExec {
  std::string name;
  int rank = 0;  // position in name order (port A rotation)
  std::vector<StatePlan> states;  // indexed by FSM state id
  int initial = -1;
  std::vector<std::uint64_t> regs;  // dense register slots
  /// The symbol in each register slot, for register_value().
  std::vector<const hic::Symbol*> reg_symbols;
  bool custom_gate = false;
  std::function<bool(std::uint64_t)> gate;
  int passes = 0;

  enum class Mode { Gated, Plan, Fetch, Write, Advance };
  Mode mode = Mode::Gated;
  int state = -1;
  std::size_t stmt = 0;      // statement of the current state
  std::size_t operand = 0;   // operand of the current statement
  std::vector<std::uint64_t> fetched;  // the statement's operand values
  std::uint64_t branch_value = 0;
  bool trace_blocked = false;  // a ThreadBlock event is open
  // Tape evaluation workspace: the operand stack (as long as the longest
  // tape) and an extern call's arguments.
  std::vector<std::uint64_t> stack;
  std::vector<std::uint64_t> args;

  // The one memory operation in flight.
  using Stage = MemAccess::Stage;
  struct MemOp {
    Stage stage = Stage::Idle;
    const MemAccess* access = nullptr;
    std::uint64_t addr = 0;
    std::uint64_t wdata = 0;
    std::uint64_t result = 0;
    std::size_t round = kNoRound;   // DepRound index
    std::uint64_t wait_cycles = 0;  // consecutive stalled cycles
  };
  MemOp op;

  [[nodiscard]] const StmtPlan& current_stmt() const {
    return states[static_cast<std::size_t>(state)].stmts[stmt];
  }

  /// The memory operation currently in flight, if any.
  [[nodiscard]] const MemOp* current_op() const {
    if (mode == Mode::Fetch && operand < current_stmt().operands.size()) {
      return &op;
    }
    if (mode == Mode::Write) return &op;
    return nullptr;
  }
};

namespace {

using ThreadExec = SystemSim::ThreadExec;

/// Lowers one thread's FSM against the controllers. `dep_ids` numbers the
/// dependency ids seen so far (rounds are tracked per id).
class Lowering {
 public:
  Lowering(ThreadExec& thread,
           const std::vector<std::unique_ptr<SystemSim::Controller>>& ctrls,
           std::vector<std::string>& dep_ids)
      : t_(thread), ctrls_(ctrls), dep_ids_(dep_ids) {}

  void lower(const synth::ThreadFsm& fsm) {
    t_.initial = fsm.initial();
    t_.states.resize(fsm.states().size());
    std::size_t max_operands = 0;
    for (std::size_t i = 0; i < fsm.states().size(); ++i) {
      const synth::FsmState& s = fsm.states()[i];
      StatePlan& sp = t_.states[i];
      sp.state = &s;
      if (s.kind == synth::StateKind::Done) continue;
      if (s.kind == synth::StateKind::Branch) {
        lower_stmt(s, nullptr, s.cond, sp);
      } else {
        lower_stmt(s, s.stmt, nullptr, sp);
        for (const hic::Stmt* c : s.chained) lower_stmt(s, c, nullptr, sp);
      }
      sp.error = std::exchange(store_index_error_, {});
      for (const StmtPlan& p : sp.stmts) {
        max_operands = std::max(max_operands, p.operands.size());
      }
    }
    t_.fetched.assign(max_operands, 0);
  }

 private:
  void lower_stmt(const synth::FsmState& s, const hic::Stmt* stmt,
                  const hic::Expr* cond, StatePlan& sp) {
    StmtPlan p;
    std::vector<const hic::Expr*> leaves;
    if (cond != nullptr) {
      p.branch = true;
      collect(*cond, leaves);
      lower_tape(*cond, leaves, p.value);
    } else if (stmt != nullptr && stmt->kind == hic::StmtKind::Assign) {
      collect(*stmt->value, leaves);
      lower_tape(*stmt->value, leaves, p.value);
      lower_target(s, *stmt->target, p);
    } else {
      p.value.push_back({TapeOp::Code::Const, 0, 0});  // nothing to do
    }
    for (const hic::Expr* leaf : leaves) {
      p.operands.push_back(access(s, *leaf, *leaf->symbol, false));
    }
    sp.stmts.push_back(std::move(p));
  }

  /// Memory operands of `e`, in evaluation order. The base of a memory
  /// leaf is not descended into; its index is lowered with the access.
  static void collect(const hic::Expr& e,
                      std::vector<const hic::Expr*>& leaves) {
    if (is_memory_leaf(e)) {
      leaves.push_back(&e);
      return;
    }
    for (const auto& sub : e.operands) collect(*sub, leaves);
  }

  void lower_target(const synth::FsmState& s, const hic::Expr& target,
                    StmtPlan& p) {
    if (target.kind == hic::ExprKind::Index &&
        expr_reads_memory(*target.operands[1])) {
      store_index_error_ =
          "sim: memory reads inside store index expressions are not "
          "supported";
    }
    const hic::Expr* root = &target;
    while (root->kind == hic::ExprKind::Index ||
           root->kind == hic::ExprKind::Member) {
      root = root->operands[0].get();
    }
    const hic::Symbol* sym = root->symbol;
    if (sym == nullptr) return;
    if (memalloc::is_memory_resident(*sym)) {
      p.target = StmtPlan::Target::Memory;
      p.write = access(s, target, *sym, true);
      p.write.wdata_mask = type_mask(sym->type());
    } else {
      p.target = StmtPlan::Target::Register;
      p.reg_slot = register_slot(sym, /*allocate=*/true);
      p.reg_mask = type_mask(sym->type());
    }
  }

  /// The access of `e` (a memory leaf, or a store target rooted at `sym`).
  MemAccess access(const synth::FsmState& s, const hic::Expr& e,
                   const hic::Symbol& sym, bool is_write) {
    MemAccess a;
    a.is_write = is_write;
    const memalloc::Placement* placement = nullptr;
    for (const auto& c : ctrls_) {
      if ((placement = c->bram->find(&sym)) != nullptr) {
        a.ctrl = c.get();
        break;
      }
    }
    if (placement == nullptr) {
      a.error = "sim: symbol not in memory map: " + sym.qualified_name();
      return a;
    }
    a.base = placement->base_address;
    if (e.kind == hic::ExprKind::Index) {
      if (expr_reads_memory(*e.operands[1])) {
        a.error =
            "sim: memory reads inside index expressions are not supported";
        return a;
      }
      a.indexed = true;
      a.elements = sym.element_count();
      a.words_per_element = placement->words / a.elements;
      if (a.words_per_element == 0) a.words_per_element = 1;
      lower_tape(*e.operands[1], {}, a.index);
    }
    for (const synth::StateAccess& sa : s.accesses) {
      if (sa.symbol == &sym && sa.is_write == is_write) {
        a.role = sa.role;
        a.dep = sa.dep;
        break;
      }
    }
    if (a.dep != nullptr) a.dep_index = dep_index(a.dep->id);
    const synth::AccessRole guarded = is_write
                                          ? synth::AccessRole::ProducerWrite
                                          : synth::AccessRole::ConsumerRead;
    if (a.role != guarded) {
      a.first = MemAccess::Stage::PortA;
      return a;
    }
    a.pseudo_port = a.ctrl->pseudo_port(
        t_.name, is_write ? memalloc::LogicalPort::D : memalloc::LogicalPort::C);
    if (a.ctrl->kind == OrgKind::EventDriven) {
      a.target_slot = a.dep != nullptr
                          ? a.ctrl->slot_of(a.dep->id, is_write, a.pseudo_port)
                          : -1;
      a.first = MemAccess::Stage::EvWaitSlot;
    } else {
      a.first = MemAccess::Stage::Request;
    }
    return a;
  }

  void lower_tape(const hic::Expr& e,
                  const std::vector<const hic::Expr*>& leaves, Tape& tape) {
    lower_expr(e, leaves, tape);
    t_.stack.resize(std::max(t_.stack.size(), tape.size()));
  }

  void lower_expr(const hic::Expr& e,
                  const std::vector<const hic::Expr*>& leaves, Tape& tape) {
    using Code = TapeOp::Code;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] == &e) {
        tape.push_back({Code::Operand, static_cast<std::uint32_t>(i)});
        return;
      }
    }
    const std::uint64_t mask = type_mask(e.type);
    switch (e.kind) {
      case hic::ExprKind::IntLit:
      case hic::ExprKind::CharLit:
        tape.push_back({Code::Const, 0, e.int_value});
        return;
      case hic::ExprKind::VarRef: {
        const int slot = e.symbol != nullptr
                             ? register_slot(e.symbol, /*allocate=*/false)
                             : -1;
        if (slot < 0) {
          tape.push_back({Code::Unfetched, 0, 0, &e});
        } else {
          tape.push_back({Code::Reg, static_cast<std::uint32_t>(slot)});
        }
        return;
      }
      case hic::ExprKind::Member:
        lower_expr(*e.operands[0], leaves, tape);
        tape.push_back({Code::Mask, 0, mask});
        return;
      case hic::ExprKind::Index:
        tape.push_back({Code::IndexNotOperand, 0, 0, &e});
        return;
      case hic::ExprKind::Unary:
        lower_expr(*e.operands[0], leaves, tape);
        tape.push_back({unary_code(e.unary_op), 0, mask});
        return;
      case hic::ExprKind::Binary:
        lower_expr(*e.operands[0], leaves, tape);
        lower_expr(*e.operands[1], leaves, tape);
        tape.push_back({binary_code(e.binary_op), 0, mask});
        return;
      case hic::ExprKind::Call:
        for (const auto& a : e.operands) lower_expr(*a, leaves, tape);
        tape.push_back({Code::Call,
                        static_cast<std::uint32_t>(e.operands.size()), mask,
                        &e});
        return;
    }
  }

  /// The register slot of `sym`; -1 when the thread has none and
  /// `allocate` is false.
  int register_slot(const hic::Symbol* sym, bool allocate) {
    for (std::size_t i = 0; i < t_.reg_symbols.size(); ++i) {
      if (t_.reg_symbols[i] == sym) return static_cast<int>(i);
    }
    if (!allocate) return -1;
    t_.reg_symbols.push_back(sym);
    t_.regs.push_back(0);
    return static_cast<int>(t_.reg_symbols.size() - 1);
  }

  std::size_t dep_index(const std::string& id) {
    for (std::size_t i = 0; i < dep_ids_.size(); ++i) {
      if (dep_ids_[i] == id) return i;
    }
    dep_ids_.push_back(id);
    return dep_ids_.size() - 1;
  }

  ThreadExec& t_;
  const std::vector<std::unique_ptr<SystemSim::Controller>>& ctrls_;
  std::vector<std::string>& dep_ids_;
  std::string store_index_error_;  // of the state being lowered
};

}  // namespace

// ---------------------------------------------------------------------------

SystemSim::SystemSim(
    const hic::Program& program, const hic::Sema& sema,
    const std::vector<synth::ThreadFsm>& fsms,
    const std::vector<memorg::GeneratedController>& controllers,
    SystemOptions options)
    : sema_(sema), options_(options) {
  for (const memorg::GeneratedController& generated : controllers) {
    if (generated.organization != options.organization) {
      throw std::invalid_argument(support::format(
          "SystemSim: %s organization requested, but the bram%d controller "
          "is %s",
          to_string(options.organization), generated.bram.id,
          to_string(generated.organization)));
    }
    controllers_.push_back(std::make_unique<Controller>(generated));
  }

  // Lower every thread's FSM once. The compiler lists the FSMs in thread
  // order, so the i-th is tried first.
  std::vector<std::string> dep_ids;
  for (std::size_t i = 0; i < program.threads.size(); ++i) {
    const hic::ThreadDecl& t = program.threads[i];
    const synth::ThreadFsm* fsm =
        i < fsms.size() && fsms[i].thread_name() == t.name ? &fsms[i]
                                                           : nullptr;
    for (std::size_t j = 0; fsm == nullptr && j < fsms.size(); ++j) {
      if (fsms[j].thread_name() == t.name) fsm = &fsms[j];
    }
    if (fsm == nullptr) {
      throw std::invalid_argument("SystemSim: no FSM for thread '" + t.name +
                                  "'");
    }
    auto exec = std::make_unique<ThreadExec>();
    exec->name = t.name;
    if (const auto* table = sema.thread_table(t.name)) {
      for (hic::Symbol* s : table->symbols()) {
        if (memalloc::is_memory_resident(*s)) continue;
        exec->reg_symbols.push_back(s);
        exec->regs.push_back(0);
      }
    }
    Lowering(*exec, controllers_, dep_ids).lower(*fsm);
    threads_.push_back(std::move(exec));
  }
  std::vector<ThreadExec*> by_name;
  for (const auto& t : threads_) by_name.push_back(t.get());
  std::sort(by_name.begin(), by_name.end(),
            [](const ThreadExec* a, const ThreadExec* b) {
              return a->name < b->name;
            });
  for (std::size_t r = 0; r < by_name.size(); ++r) {
    by_name[r]->rank = static_cast<int>(r);
  }
  open_round_.assign(dep_ids.size(), kNoRound);
}

SystemSim::~SystemSim() = default;

void SystemSim::reset() {
  cycle_ = 0;
  rounds_.clear();
  std::fill(open_round_.begin(), open_round_.end(), kNoRound);
  for (auto& ctrl : controllers_) {
    ctrl->sim->clear_state();
    ctrl->sim->reset();
    ctrl->a_waiters.clear();
    ctrl->a_owner = -1;
    ctrl->a_rotate = 0;
    ctrl->traced_slot = -1;
  }
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    t.passes = 0;
    t.mode = ThreadExec::Mode::Gated;
    t.state = -1;
    t.stmt = 0;
    t.operand = 0;
    t.op = ThreadExec::MemOp{};
    t.branch_value = 0;
    t.trace_blocked = false;
    std::fill(t.regs.begin(), t.regs.end(), 0);
    std::fill(t.fetched.begin(), t.fetched.end(), 0);
  }
}

SystemSim::ThreadExec* SystemSim::find_thread(const std::string& name) const {
  for (const auto& t : threads_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

void SystemSim::set_gate(const std::string& thread,
                         std::function<bool(std::uint64_t)> gate) {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) {
    throw std::runtime_error("SystemSim: unknown thread '" + thread + "'");
  }
  t->custom_gate = true;
  t->gate = std::move(gate);
}

int SystemSim::passes(const std::string& thread) const {
  ThreadExec* t = find_thread(thread);
  return t != nullptr ? t->passes : 0;
}

std::uint64_t SystemSim::register_value(const std::string& thread,
                                        const std::string& var) const {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) {
    throw std::runtime_error("SystemSim: unknown thread '" + thread + "'");
  }
  hic::Symbol* sym = sema_.lookup(thread, var);
  if (sym == nullptr) {
    throw std::runtime_error("SystemSim: unknown variable '" + var + "'");
  }
  for (std::size_t i = 0; i < t->reg_symbols.size(); ++i) {
    if (t->reg_symbols[i] == sym) return t->regs[i];
  }
  throw std::runtime_error("SystemSim: '" + var + "' is memory-resident; "
                           "inspect it through the controller");
}

bool SystemSim::is_blocked(const std::string& thread) const {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) return false;
  return t->mode == ThreadExec::Mode::Fetch ||
         t->mode == ThreadExec::Mode::Write;
}

namespace {

using Mode = ThreadExec::Mode;
using Stage = MemAccess::Stage;
using MemOp = ThreadExec::MemOp;

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Gated: return "gated";
    case Mode::Plan: return "plan";
    case Mode::Fetch: return "fetch";
    case Mode::Write: return "write";
    case Mode::Advance: return "advance";
  }
  return "?";
}

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::Idle: return "idle";
    case Stage::PortA: return "waiting for port A";
    case Stage::PortA_Data: return "port A read data";
    case Stage::Request: return "waiting for grant";
    case Stage::WaitValid: return "waiting for read data";
    case Stage::EvWaitSlot: return "waiting for schedule slot";
    case Stage::Done: return "done";
  }
  return "?";
}

}  // namespace

std::vector<ThreadDiagnostic> SystemSim::thread_diagnostics() const {
  std::vector<ThreadDiagnostic> out;
  for (const auto& tp : threads_) {
    const ThreadExec& t = *tp;
    ThreadDiagnostic d;
    d.thread = t.name;
    d.passes = t.passes;
    d.mode = mode_name(t.mode);
    d.fsm_state = t.state;
    d.blocked = t.mode == Mode::Fetch || t.mode == Mode::Write;
    if (const MemOp* mo = t.current_op();
        mo != nullptr && mo->stage != Stage::Idle &&
        mo->stage != Stage::Done) {
      const MemAccess& a = *mo->access;
      const char* role = a.role == synth::AccessRole::ConsumerRead
                             ? "consumer read"
                             : (a.role == synth::AccessRole::ProducerWrite
                                    ? "producer write"
                                    : (a.is_write ? "write" : "read"));
      std::string port =
          a.role == synth::AccessRole::ConsumerRead
              ? "C" + std::to_string(a.pseudo_port)
              : (a.role == synth::AccessRole::ProducerWrite
                     ? "D" + std::to_string(a.pseudo_port)
                     : "A");
      d.waiting_on = support::format(
          "%s%s on bram%d port %s, %s, %llu cycle(s) waiting", role,
          a.dep != nullptr ? (" of dep '" + a.dep->id + "'").c_str() : "",
          a.ctrl != nullptr ? a.ctrl->bram_id : -1, port.c_str(),
          stage_name(mo->stage),
          static_cast<unsigned long long>(mo->wait_cycles));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::string SystemSim::stall_report() const {
  std::string out = support::format(
      "simulation state at cycle %llu (%s organization):\n",
      static_cast<unsigned long long>(cycle_),
      to_string(options_.organization));
  for (const ThreadDiagnostic& d : thread_diagnostics()) {
    out += support::format("  %-12s passes=%d mode=%s fsm_state=%d%s\n",
                           d.thread.c_str(), d.passes, d.mode.c_str(),
                           d.fsm_state, d.blocked ? " BLOCKED" : "");
    if (!d.waiting_on.empty()) {
      out += "      waiting: " + d.waiting_on + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The main simulation loop.
// ---------------------------------------------------------------------------

void SystemSim::step() {
  const bool tracing = trace_ != nullptr && trace_->active();
  if (tracing) trace_->begin_cycle(cycle_);
  for (auto& ctrl : controllers_) ctrl->begin_cycle();
  drive_phase();
  for (auto& ctrl : controllers_) ctrl->sim->settle();
  if (tracing) {
    for (auto& ctrl : controllers_) ctrl->trace_grants(cycle_, *trace_);
  }
  observe_phase();
  // Nothing reads a combinational net before the next cycle's settle (the
  // event-driven `slot` the drive phase reads is a register), so the edge
  // does not re-settle.
  for (auto& ctrl : controllers_) ctrl->sim->step_edge();
  ++cycle_;
}

bool SystemSim::run_until_passes(int target, std::uint64_t max_cycles) {
  std::uint64_t deadline = cycle_ + max_cycles;
  while (cycle_ < deadline) {
    bool all_done = true;
    for (const auto& t : threads_) {
      if (t->passes < target) all_done = false;
    }
    if (all_done) return true;
    step();
  }
  for (const auto& t : threads_) {
    if (t->passes < target) return false;
  }
  return true;
}

namespace {

/// Runs a postfix tape over the thread's registers and fetched operands.
/// Externs are looked up by name on every call, so a caller may re-bind
/// them between runs.
std::uint64_t eval(const Tape& tape, ThreadExec& t,
                   const ExternFuncs& externs) {
  std::uint64_t* sp = t.stack.data();  // sized for the longest tape
  using Code = TapeOp::Code;
  for (const TapeOp& op : tape) {
    switch (op.code) {
      case Code::Const: *sp++ = op.value; continue;
      case Code::Reg: *sp++ = t.regs[op.arg]; continue;
      case Code::Operand: *sp++ = t.fetched[op.arg]; continue;
      case Code::Neg: sp[-1] = (~sp[-1] + 1) & op.value; continue;
      case Code::Not: sp[-1] = (sp[-1] == 0 ? 1 : 0) & op.value; continue;
      case Code::BitNot: sp[-1] = ~sp[-1] & op.value; continue;
      case Code::Mask: sp[-1] &= op.value; continue;
      case Code::Call: {
        sp -= op.arg;
        t.args.assign(sp, sp + op.arg);
        *sp++ = externs.eval(op.expr->name, t.args) & op.value;
        continue;
      }
      case Code::Unfetched:
        throw std::runtime_error(
            "sim: unfetched memory operand " +
            (op.expr->symbol != nullptr ? op.expr->symbol->qualified_name()
                                        : op.expr->name));
      case Code::IndexNotOperand:
        throw std::runtime_error("sim: array access must be a memory operand");
      default: break;
    }
    const std::uint64_t b = *--sp;
    const std::uint64_t a = sp[-1];
    std::uint64_t v = 0;
    switch (op.code) {
      case Code::Add: v = a + b; break;
      case Code::Sub: v = a - b; break;
      case Code::Mul: v = a * b; break;
      case Code::Div: v = b == 0 ? 0 : a / b; break;
      case Code::Mod: v = b == 0 ? 0 : a % b; break;
      case Code::And: v = a & b; break;
      case Code::Or: v = a | b; break;
      case Code::Xor: v = a ^ b; break;
      case Code::Shl: v = b >= 64 ? 0 : a << b; break;
      case Code::Shr: v = b >= 64 ? 0 : a >> b; break;
      case Code::LogAnd: v = (a != 0 && b != 0) ? 1 : 0; break;
      case Code::LogOr: v = (a != 0 || b != 0) ? 1 : 0; break;
      case Code::Eq: v = a == b ? 1 : 0; break;
      case Code::Ne: v = a != b ? 1 : 0; break;
      case Code::Lt: v = a < b ? 1 : 0; break;
      case Code::Le: v = a <= b ? 1 : 0; break;
      case Code::Gt: v = a > b ? 1 : 0; break;
      case Code::Ge: v = a >= b ? 1 : 0; break;
      default: break;
    }
    sp[-1] = v & op.value;
  }
  return sp[-1];
}

/// Puts `access` in flight; `wdata` is the value a write stores.
void start_op(ThreadExec& t, const MemAccess& access, std::uint64_t wdata,
              const ExternFuncs& externs) {
  if (!access.error.empty()) throw std::runtime_error(access.error);
  ThreadExec::MemOp& mo = t.op;
  mo = ThreadExec::MemOp{};
  mo.access = &access;
  mo.stage = access.first;
  mo.addr = access.base;
  if (access.indexed) {
    mo.addr += (eval(access.index, t, externs) % access.elements) *
               access.words_per_element;
  }
  mo.wdata = wdata & access.wdata_mask;
}

/// Drives the controller inputs of an access for this cycle. Inlined: it
/// runs for every waiting thread every cycle.
[[gnu::always_inline]] inline void drive_mem_op(const ThreadExec& t,
                                                const MemOp& mo) {
  const MemAccess& a = *mo.access;
  SystemSim::Controller& c = *a.ctrl;
  rtl::ModuleSim& sim = *c.sim;
  switch (mo.stage) {
    case Stage::PortA:
      if (c.claim_port_a(t.rank)) {
        sim.set_input(c.port_a.en, 1);
        sim.set_input(c.port_a.we, a.is_write ? 1 : 0);
        sim.set_input(c.port_a.addr, mo.addr);
        if (a.is_write) sim.set_input(c.port_a.wdata, mo.wdata);
      }
      break;
    case Stage::Request:
    case Stage::EvWaitSlot: {
      if (mo.stage == Stage::EvWaitSlot && c.slot_now != a.target_slot) {
        break;
      }
      if (a.is_write) {
        const auto& d = c.producer(a.pseudo_port);
        sim.set_input(d.req, 1);
        sim.set_input(d.addr, mo.addr);
        sim.set_input(d.wdata, mo.wdata);
      } else {
        const auto& r = c.consumer(a.pseudo_port);
        sim.set_input(r.req, 1);
        sim.set_input(r.addr, mo.addr);
      }
      break;
    }
    case Stage::PortA_Data:
    case Stage::WaitValid:
    case Stage::Idle:
    case Stage::Done:
      break;
  }
}

}  // namespace

void SystemSim::drive_phase() {
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;

    // --- Mode transitions that need no controller interaction. ---
    if (t.mode == Mode::Gated) {
      const bool release = t.custom_gate
                               ? t.gate && t.gate(cycle_)
                               : options_.restart_threads || t.passes == 0;
      if (!release) continue;
      t.state = t.initial;
      t.mode = Mode::Plan;
      if (trace_ != nullptr && trace_->active()) {
        trace::Event e;
        e.cycle = cycle_;
        e.kind = trace::EventKind::FsmState;
        e.thread = t.name;
        e.value = t.state;
        trace_->emit(e);
      }
    }

    if (t.mode == Mode::Plan) {
      const StatePlan& sp = t.states[static_cast<std::size_t>(t.state)];
      if (sp.state->kind == synth::StateKind::Done) {
        ++t.passes;
        if (trace_ != nullptr && trace_->active()) {
          trace::Event e;
          e.cycle = cycle_;
          e.kind = trace::EventKind::PassComplete;
          e.thread = t.name;
          e.value = t.passes;
          trace_->emit(e);
        }
        t.mode = Mode::Gated;
        continue;
      }
      if (!sp.error.empty()) throw std::runtime_error(sp.error);
      t.stmt = 0;
      t.operand = 0;
      t.op.stage = Stage::Idle;
      t.mode = Mode::Fetch;
    }

    if (t.mode != Mode::Fetch && t.mode != Mode::Write) continue;
    // An access still waiting: drive it again. A write is always in
    // flight here.
    if (t.op.stage != Stage::Done && t.op.stage != Stage::Idle) {
      drive_mem_op(t, t.op);
      continue;
    }

    // Fetching, between operands: the last cycle completed one (Done), or
    // the statement has just begun (Idle).
    const StmtPlan& p = t.current_stmt();
    if (t.op.stage == Stage::Done) ++t.operand;
    if (t.operand < p.operands.size()) {
      start_op(t, p.operands[t.operand], 0, externs_);
      drive_mem_op(t, t.op);
      continue;
    }
    // Every operand is fetched: compute the statement.
    const std::uint64_t value = eval(p.value, t, externs_);
    if (p.branch) {
      t.branch_value = value;
      t.mode = Mode::Advance;
    } else if (p.target == StmtPlan::Target::Memory) {
      start_op(t, p.write, value, externs_);
      t.mode = Mode::Write;
      drive_mem_op(t, t.op);
    } else {
      // A register write completes instantly.
      if (p.target == StmtPlan::Target::Register) {
        t.regs[p.reg_slot] = value & p.reg_mask;
      }
      t.mode = Mode::Advance;
    }
  }
}

namespace {

/// The events of one cycle of an access: a request, then its grant or its
/// stall, and the thread's unblock or block edge.
void trace_access(trace::TraceBus& bus, trace::Event e, bool granted,
                  trace::StallCause cause, bool& blocked) {
  e.kind = trace::EventKind::PortRequest;
  bus.emit(e);
  if (granted) {
    e.kind = trace::EventKind::PortGrant;
    bus.emit(e);
    if (blocked) {
      e.kind = trace::EventKind::ThreadUnblock;
      bus.emit(e);
      blocked = false;
    }
  } else {
    e.kind = trace::EventKind::PortStall;
    e.cause = cause;
    bus.emit(e);
    if (!blocked) {
      e.kind = trace::EventKind::ThreadBlock;
      e.cause = trace::StallCause::None;
      bus.emit(e);
      blocked = true;
    }
  }
}

trace::PortKind port_kind_of(synth::AccessRole role) {
  switch (role) {
    case synth::AccessRole::ConsumerRead: return trace::PortKind::C;
    case synth::AccessRole::ProducerWrite: return trace::PortKind::D;
    case synth::AccessRole::Plain: break;
  }
  return trace::PortKind::A;
}

}  // namespace

// Inlined into observe_phase(), its only caller: it runs for every waiting
// thread every cycle.
[[gnu::always_inline]] inline void SystemSim::observe_op(ThreadExec& t,
                                                         bool tracing) {
  using trace::StallCause;
  MemOp& mo = t.op;
  const MemAccess& a = *mo.access;
  SystemSim::Controller& c = *a.ctrl;
  rtl::ModuleSim& sim = *c.sim;

  auto base_event = [&] {
    trace::Event e;
    e.cycle = cycle_;
    e.controller = c.bram_id;
    e.port = port_kind_of(a.role);
    e.pseudo_port = a.pseudo_port;
    e.thread = t.name;
    if (a.dep != nullptr) e.dep = a.dep->id;
    return e;
  };
  // Every cycle the op occupies (or waits for) its port is exactly one of
  // granted or stalled. The data-valid cycle of a consumer read reports
  // through `consumed` instead.
  auto access = [&](bool granted, StallCause cause) {
    mo.wait_cycles = granted ? 0 : mo.wait_cycles + 1;
    if (tracing) {
      trace_access(*trace_, base_event(), granted, cause, t.trace_blocked);
    }
  };
  auto produced = [&] {
    if (a.dep == nullptr) return;
    DepRound round;
    round.dep_id = a.dep->id;
    round.produce_grant_cycle = cycle_;
    open_round_[a.dep_index] = rounds_.size();
    rounds_.push_back(std::move(round));
    if (tracing) {
      trace::Event e = base_event();
      e.kind = trace::EventKind::Produce;
      trace_->emit(e);
    }
  };
  auto consumed = [&] {
    if (tracing && t.trace_blocked) {
      trace::Event e = base_event();
      e.kind = trace::EventKind::ThreadUnblock;
      trace_->emit(e);
      t.trace_blocked = false;
    }
    mo.wait_cycles = 0;
    if (a.dep == nullptr) return;
    if (tracing) {
      trace::Event e = base_event();
      e.kind = trace::EventKind::Consume;
      trace_->emit(e);
    }
    if (mo.round >= rounds_.size()) return;
    rounds_[mo.round].consume_cycles.emplace_back(t.name, cycle_);
    if (tracing &&
        rounds_[mo.round].consume_cycles.size() == a.dep->consumers.size()) {
      trace::Event e = base_event();
      e.kind = trace::EventKind::RoundComplete;
      e.value =
          static_cast<std::int64_t>(rounds_[mo.round].completion_latency());
      trace_->emit(e);
    }
  };
  auto open_round = [&] {
    return a.dep != nullptr ? open_round_[a.dep_index] : kNoRound;
  };

  switch (mo.stage) {
    case Stage::PortA:
      if (c.a_owner == t.rank) {
        access(true, StallCause::None);
        // A write commits on this edge; a read's data arrives next cycle.
        mo.stage = a.is_write ? Stage::Done : Stage::PortA_Data;
      } else {
        access(false, StallCause::PortABusy);
      }
      break;
    case Stage::PortA_Data:
      // The read issued last cycle; a_rdata now holds the value.
      mo.result = sim.get(c.port_a.rdata);
      mo.stage = Stage::Done;
      break;
    case Stage::Request: {
      const bool granted =
          sim.get(a.is_write ? c.producer(a.pseudo_port).grant
                             : c.consumer(a.pseudo_port).grant) != 0;
      if (!granted) {
        const bool lost =
            a.is_write ? c.other_granted(c.producer_nets, a.pseudo_port)
                       : c.other_granted(c.consumer_nets, a.pseudo_port);
        access(false, lost ? StallCause::ArbitrationLoss
                           : StallCause::DependencyNotProduced);
        break;
      }
      access(true, StallCause::None);
      if (a.is_write) {
        produced();
        mo.stage = Stage::Done;
      } else {
        mo.round = open_round();
        mo.stage = Stage::WaitValid;
      }
      break;
    }
    case Stage::EvWaitSlot: {
      if (c.slot_now != a.target_slot) {
        access(false, StallCause::NotOurSlot);
        break;
      }
      // A producer is granted in its slot; a consumer's slot fires this
      // edge iff its request was up.
      const bool granted =
          sim.get(a.is_write ? c.producer(a.pseudo_port).grant
                             : c.consumer(a.pseudo_port).req) != 0;
      if (!granted) {
        access(false, StallCause::DependencyNotProduced);
        break;
      }
      access(true, StallCause::None);
      if (a.is_write) {
        produced();
        mo.stage = Stage::Done;
      } else {
        mo.round = open_round();
        mo.stage = Stage::WaitValid;
      }
      break;
    }
    case Stage::WaitValid:
      if (sim.get(c.consumer(a.pseudo_port).valid) != 0) {
        mo.result = sim.get(c.bus_rdata);
        consumed();
        mo.stage = Stage::Done;
      } else {
        access(false, StallCause::DataWait);
      }
      break;
    case Stage::Idle:
    case Stage::Done:
      break;
  }
}

void SystemSim::observe_phase() {
  const bool tracing = trace_ != nullptr && trace_->active();
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    // The drive phase left every fetching or writing thread with its
    // access in flight.
    if (t.mode == Mode::Fetch || t.mode == Mode::Write) {
      observe_op(t, tracing);
      if (t.op.stage == Stage::Done) {
        t.op.access->ctrl->release_port_a(t.rank);
        if (t.mode == Mode::Fetch) {
          t.fetched[t.operand] = t.op.result;
        } else {
          t.mode = Mode::Advance;
        }
      }
    }

    if (t.mode == Mode::Advance) {
      const StatePlan& sp = t.states[static_cast<std::size_t>(t.state)];
      if (t.stmt + 1 < sp.stmts.size()) {
        // Chained statement: move to the next statement in this state.
        ++t.stmt;
        t.operand = 0;
        t.op.stage = Stage::Idle;
        t.mode = Mode::Fetch;
        continue;
      }
      // Choose the successor state.
      const synth::FsmState& s = *sp.state;
      int next = -1;
      switch (s.kind) {
        case synth::StateKind::Action:
          next = s.next;
          break;
        case synth::StateKind::Branch:
          if (s.case_targets.empty()) {
            next = (t.branch_value != 0) ? s.true_target : s.false_target;
          } else {
            for (const synth::CaseTransition& ct : s.case_targets) {
              if (!ct.is_default && ct.value == t.branch_value) {
                next = ct.target;
                break;
              }
            }
            if (next < 0) {
              for (const synth::CaseTransition& ct : s.case_targets) {
                if (ct.is_default) next = ct.target;
              }
            }
          }
          break;
        case synth::StateKind::Done:
          next = t.state;
          break;
      }
      if (tracing && next != t.state) {
        trace::Event e;
        e.cycle = cycle_;
        e.kind = trace::EventKind::FsmState;
        e.thread = t.name;
        e.value = next;
        trace_->emit(e);
      }
      t.state = next;
      t.mode = Mode::Plan;
    }
  }
}

}  // namespace hicsync::sim
