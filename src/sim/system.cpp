#include "sim/system.h"

#include <algorithm>
#include <stdexcept>

#include "memalloc/sizing.h"
#include "memorg/probe.h"
#include "support/bits.h"
#include "support/strings.h"

namespace hicsync::sim {

const char* to_string(OrgKind k) {
  switch (k) {
    case OrgKind::Arbitrated: return "arbitrated";
    case OrgKind::EventDriven: return "event-driven";
  }
  return "unknown";
}

std::uint64_t DepRound::completion_latency() const {
  std::uint64_t last = produce_grant_cycle;
  for (const auto& [thread, cycle] : consume_cycles) {
    last = std::max(last, cycle);
  }
  return last - produce_grant_cycle;
}

namespace {

std::uint64_t mask_width(std::uint64_t v, int width) {
  if (width <= 0 || width >= 64) return v;
  return v & ((1ULL << width) - 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Controller: one generated memory organization + its host-side bookkeeping.
// ---------------------------------------------------------------------------

struct SystemSim::Controller {
  /// Simulates `module`, the organization generated for `bram`, and binds
  /// its ports and probe once.
  Controller(int bram, OrgKind org, const memalloc::BramPortPlan& port_plan,
             std::vector<memorg::DepEntry> deps, const rtl::Module& module)
      : bram_id(bram),
        kind(org),
        plan(&port_plan),
        entries(std::move(deps)),
        sim(std::make_unique<rtl::ModuleSim>(module)) {
    if (kind == OrgKind::EventDriven) {
      // Mirror the generator's slot enumeration.
      for (const memorg::DepEntry& e : entries) {
        slot_table.push_back(SlotRef{e.id, true, e.producer_port});
        for (int cp : e.consumer_ports) {
          slot_table.push_back(SlotRef{e.id, false, cp});
        }
      }
    }
    bind_nets();
    memorg::ProbeConfig probe_cfg;
    probe_cfg.controller = bram_id;
    probe_cfg.event_driven = kind == OrgKind::EventDriven;
    probe_cfg.num_consumers = plan->consumer_pseudo_ports();
    probe_cfg.num_producers = plan->producer_pseudo_ports();
    probe = std::make_unique<memorg::ControllerProbe>(probe_cfg, *sim);
    sim->reset();
  }

  int bram_id = -1;
  OrgKind kind = OrgKind::Arbitrated;
  const memalloc::BramPortPlan* plan = nullptr;
  std::vector<memorg::DepEntry> entries;
  std::unique_ptr<rtl::ModuleSim> sim;

  // Port A host-side sharing: one owner per cycle, rotating for fairness.
  std::vector<std::string> a_waiters;
  std::string a_owner;
  std::size_t a_rotate = 0;

  // hic-trace probe over the generated netlist (grants, slot).
  std::unique_ptr<memorg::ControllerProbe> probe;

  // Event-driven slot table: slot index of each (dep, endpoint).
  struct SlotRef {
    std::string dep_id;
    bool is_producer = false;
    int pseudo_port = 0;
  };
  std::vector<SlotRef> slot_table;

  [[nodiscard]] int pseudo_port(const std::string& thread,
                                memalloc::LogicalPort port) const {
    const memalloc::PortClient* c = plan->client_for(thread, port);
    return c != nullptr ? c->pseudo_port : -1;
  }

  /// Slot index of a dependency endpoint (event-driven only); -1 if absent.
  [[nodiscard]] int slot_of(const std::string& dep_id, bool producer,
                            int pseudo_port_index) const {
    for (std::size_t s = 0; s < slot_table.size(); ++s) {
      const SlotRef& r = slot_table[s];
      if (r.dep_id == dep_id && r.is_producer == producer &&
          r.pseudo_port == pseudo_port_index) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  // Net handles into the generated module, bound by the constructor. The
  // producer side is d_* (arbitrated) or p_* (event-driven); `grant` of a
  // consumer is arbitrated-only and `slot` event-driven-only (else -1).
  struct ConsumerNets {
    int req = -1, addr = -1, grant = -1, valid = -1;
  };
  struct ProducerNets {
    int req = -1, addr = -1, wdata = -1, grant = -1;
  };
  std::vector<ConsumerNets> consumer_nets;
  std::vector<ProducerNets> producer_nets;
  int a_en = -1, a_we = -1, a_addr = -1, a_wdata = -1, a_rdata = -1;
  int bus_rdata = -1, slot = -1;

  void bind_nets() {
    const rtl::ModuleSim& m = *sim;
    const bool arbitrated = kind == OrgKind::Arbitrated;
    consumer_nets.resize(
        static_cast<std::size_t>(plan->consumer_pseudo_ports()));
    for (std::size_t i = 0; i < consumer_nets.size(); ++i) {
      const std::string idx = std::to_string(i);
      ConsumerNets& c = consumer_nets[i];
      c.req = m.find_net("c_req" + idx);
      c.addr = m.find_net("c_addr" + idx);
      if (arbitrated) c.grant = m.find_net("c_grant" + idx);
      c.valid = m.find_net("c_valid" + idx);
    }
    const std::string p = arbitrated ? "d_" : "p_";
    producer_nets.resize(
        static_cast<std::size_t>(plan->producer_pseudo_ports()));
    for (std::size_t j = 0; j < producer_nets.size(); ++j) {
      const std::string idx = std::to_string(j);
      ProducerNets& d = producer_nets[j];
      d.req = m.find_net(p + "req" + idx);
      d.addr = m.find_net(p + "addr" + idx);
      d.wdata = m.find_net(p + "wdata" + idx);
      d.grant = m.find_net(p + "grant" + idx);
    }
    a_en = m.find_net("a_en");
    a_we = m.find_net("a_we");
    a_addr = m.find_net("a_addr");
    a_wdata = m.find_net("a_wdata");
    a_rdata = m.find_net("a_rdata");
    bus_rdata = m.find_net("bus_rdata");
    if (!arbitrated) slot = m.find_net("slot");
  }

  [[nodiscard]] const ConsumerNets& consumer(int pseudo_port) const {
    return consumer_nets[static_cast<std::size_t>(pseudo_port)];
  }
  [[nodiscard]] const ProducerNets& producer(int pseudo_port) const {
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

  void begin_cycle() {
    // Clear all request-style inputs; threads re-assert each cycle.
    for (const ConsumerNets& c : consumer_nets) sim->set_input(c.req, 0);
    for (const ProducerNets& d : producer_nets) sim->set_input(d.req, 0);
    sim->set_input(a_en, 0);
    sim->set_input(a_we, 0);
    // Resolve port A ownership among last cycle's waiters.
    if (!a_waiters.empty()) {
      std::sort(a_waiters.begin(), a_waiters.end());
      a_owner = a_waiters[a_rotate % a_waiters.size()];
      ++a_rotate;
    } else {
      a_owner.clear();
    }
    a_waiters.clear();
  }

  /// Thread asks to use port A this cycle; true if it owns it.
  bool claim_port_a(const std::string& thread) {
    if (a_owner.empty()) a_owner = thread;  // first claimant wins
    if (a_owner == thread) return true;
    if (std::find(a_waiters.begin(), a_waiters.end(), thread) ==
        a_waiters.end()) {
      a_waiters.push_back(thread);
    }
    return false;
  }

  void release_port_a(const std::string& thread) {
    if (a_owner == thread) a_owner.clear();
  }
};

// ---------------------------------------------------------------------------
// ThreadExec: interprets one synthesized FSM.
// ---------------------------------------------------------------------------

struct SystemSim::ThreadExec {
  std::string name;
  synth::ThreadFsm fsm;
  std::map<const hic::Symbol*, std::uint64_t> regs;
  std::function<bool(std::uint64_t)> gate;
  int passes = 0;

  enum class Mode { Gated, Plan, Fetch, Compute, Write, Advance, Halted };
  Mode mode = Mode::Gated;
  int state = -1;

  // One memory operation in flight.
  struct MemOp {
    enum class Stage {
      Idle,
      PortA,          // waiting to own / issue on port A
      PortA_Data,     // port A read issued, data next cycle
      Request,        // arbitrated C/D request outstanding
      WaitValid,      // waiting for read data valid
      EvWaitSlot,     // event-driven: waiting for our slot
      Done,
    };
    Stage stage = Stage::Idle;
    Controller* ctrl = nullptr;
    bool is_write = false;
    synth::AccessRole role = synth::AccessRole::Plain;
    const hic::Dependency* dep = nullptr;
    std::uint64_t addr = 0;
    std::uint64_t wdata = 0;
    std::uint64_t result = 0;
    int pseudo_port = -1;
    int target_slot = -1;   // event-driven
    std::size_t round = static_cast<std::size_t>(-1);  // DepRound index
    std::uint64_t wait_cycles = 0;  // consecutive stalled cycles
  };

  // Execution plan of the current state: one entry per statement (the
  // scheduler may have chained several into the state).
  struct StmtPlan {
    const hic::Stmt* stmt = nullptr;   // Assign; nullptr for a branch cond
    const hic::Expr* cond = nullptr;   // Branch only
    struct Operand {
      const hic::Expr* expr = nullptr;
      MemOp op;
      bool fetched = false;
    };
    std::vector<Operand> operands;
    MemOp write;
    std::uint64_t computed = 0;
    bool computed_valid = false;
  };
  std::vector<StmtPlan> plan;
  std::size_t plan_index = 0;
  std::size_t operand_index = 0;
  std::uint64_t branch_value = 0;
  bool trace_blocked = false;  // a ThreadBlock event is open

  /// The memory operation currently in flight, if any.
  [[nodiscard]] const MemOp* current_op() const {
    if (plan_index >= plan.size()) return nullptr;
    const StmtPlan& p = plan[plan_index];
    if (mode == Mode::Fetch && operand_index < p.operands.size()) {
      return &p.operands[operand_index].op;
    }
    if (mode == Mode::Write) return &p.write;
    return nullptr;
  }
};

// ---------------------------------------------------------------------------

SystemSim::SystemSim(const hic::Program& program, const hic::Sema& sema,
                     const memalloc::MemoryMap& map,
                     const std::vector<memalloc::BramPortPlan>& plans,
                     SystemOptions options)
    : program_(program), sema_(sema), map_(map), options_(options) {
  // Generate one controller per BRAM.
  for (const memalloc::BramInstance& bram : map.brams()) {
    const memalloc::BramPortPlan* plan = nullptr;
    for (const auto& p : plans) {
      if (p.bram_id == bram.id) plan = &p;
    }
    if (plan == nullptr) {
      throw std::runtime_error("SystemSim: no port plan for bram " +
                               std::to_string(bram.id));
    }
    const std::string name = "memorg_bram" + std::to_string(bram.id);
    const rtl::Module& m =
        options.organization == OrgKind::Arbitrated
            ? memorg::generate_arbitrated(
                  design_, memorg::arbitrated_config_from(bram, *plan), name)
            : memorg::generate_eventdriven(
                  design_, memorg::eventdriven_config_from(bram, *plan), name);
    controllers_.push_back(std::make_unique<Controller>(
        bram.id, options.organization, *plan,
        memorg::build_dep_entries(bram, *plan), m));
  }

  // Synthesize and stage every thread.
  for (const hic::ThreadDecl& t : program.threads) {
    auto exec = std::make_unique<ThreadExec>();
    exec->name = t.name;
    exec->fsm = synth::ThreadFsm::synthesize(t, sema);
    const bool restart = options_.restart_threads;
    exec->gate = [restart, raw = exec.get()](std::uint64_t) {
      return restart || raw->passes == 0;
    };
    if (const auto* table = sema.thread_table(t.name)) {
      for (hic::Symbol* s : table->symbols()) {
        if (!memalloc::is_memory_resident(*s)) exec->regs[s] = 0;
      }
    }
    threads_.push_back(std::move(exec));
  }
}

SystemSim::~SystemSim() = default;

void SystemSim::reset() {
  cycle_ = 0;
  rounds_.clear();
  open_round_.clear();
  for (auto& ctrl : controllers_) {
    ctrl->sim->clear_state();
    ctrl->sim->reset();
    ctrl->a_waiters.clear();
    ctrl->a_owner.clear();
    ctrl->a_rotate = 0;
    ctrl->probe->reset();
  }
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    t.passes = 0;
    t.mode = ThreadExec::Mode::Gated;
    t.state = -1;
    t.plan.clear();
    t.plan_index = 0;
    t.operand_index = 0;
    t.branch_value = 0;
    t.trace_blocked = false;
    for (auto& [sym, value] : t.regs) value = 0;
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
  auto it = t->regs.find(sym);
  if (it == t->regs.end()) {
    throw std::runtime_error("SystemSim: '" + var + "' is memory-resident; "
                             "inspect it through the controller");
  }
  return it->second;
}

bool SystemSim::is_blocked(const std::string& thread) const {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) return false;
  return t->mode == ThreadExec::Mode::Fetch ||
         t->mode == ThreadExec::Mode::Write;
}

namespace {

const char* mode_name(SystemSim::ThreadExec::Mode m) {
  using Mode = SystemSim::ThreadExec::Mode;
  switch (m) {
    case Mode::Gated: return "gated";
    case Mode::Plan: return "plan";
    case Mode::Fetch: return "fetch";
    case Mode::Compute: return "compute";
    case Mode::Write: return "write";
    case Mode::Advance: return "advance";
    case Mode::Halted: return "halted";
  }
  return "?";
}

const char* stage_name(SystemSim::ThreadExec::MemOp::Stage s) {
  using Stage = SystemSim::ThreadExec::MemOp::Stage;
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
    d.blocked = t.mode == ThreadExec::Mode::Fetch ||
                t.mode == ThreadExec::Mode::Write;
    if (const ThreadExec::MemOp* mo = t.current_op();
        mo != nullptr && mo->stage != ThreadExec::MemOp::Stage::Idle &&
        mo->stage != ThreadExec::MemOp::Stage::Done) {
      const char* role = mo->role == synth::AccessRole::ConsumerRead
                             ? "consumer read"
                             : (mo->role == synth::AccessRole::ProducerWrite
                                    ? "producer write"
                                    : (mo->is_write ? "write" : "read"));
      std::string port =
          mo->role == synth::AccessRole::ConsumerRead
              ? "C" + std::to_string(mo->pseudo_port)
              : (mo->role == synth::AccessRole::ProducerWrite
                     ? "D" + std::to_string(mo->pseudo_port)
                     : "A");
      d.waiting_on = support::format(
          "%s%s on bram%d port %s, %s, %llu cycle(s) waiting", role,
          mo->dep != nullptr ? (" of dep '" + mo->dep->id + "'").c_str()
                             : "",
          mo->ctrl != nullptr ? mo->ctrl->bram_id : -1, port.c_str(),
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
// Expression evaluation and plan construction.
// ---------------------------------------------------------------------------

namespace {

using ThreadExec = SystemSim::ThreadExec;

bool expr_reads_memory(const hic::Expr& e) {
  if ((e.kind == hic::ExprKind::VarRef || e.kind == hic::ExprKind::Index ||
       e.kind == hic::ExprKind::Member) &&
      e.symbol != nullptr && memalloc::is_memory_resident(*e.symbol)) {
    return true;
  }
  for (const auto& op : e.operands) {
    if (expr_reads_memory(*op)) return true;
  }
  return false;
}

}  // namespace

// Declared outside the class to keep system.h slim.
namespace detail {

struct EvalCtx {
  ThreadExec* thread;
  const ExternFuncs* externs;
  const std::map<const hic::Expr*, std::uint64_t>* memvals;
};

std::uint64_t eval_expr(const hic::Expr& e, const EvalCtx& ctx) {
  // Memory operands were fetched ahead of time.
  if (ctx.memvals != nullptr) {
    auto it = ctx.memvals->find(&e);
    if (it != ctx.memvals->end()) return it->second;
  }
  switch (e.kind) {
    case hic::ExprKind::IntLit:
    case hic::ExprKind::CharLit:
      return e.int_value;
    case hic::ExprKind::VarRef: {
      auto it = ctx.thread->regs.find(e.symbol);
      if (it == ctx.thread->regs.end()) {
        throw std::runtime_error("sim: unfetched memory operand " +
                                 (e.symbol != nullptr
                                      ? e.symbol->qualified_name()
                                      : e.name));
      }
      return it->second;
    }
    case hic::ExprKind::Member: {
      std::uint64_t v = eval_expr(*e.operands[0], ctx);
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Index:
      throw std::runtime_error("sim: array access must be a memory operand");
    case hic::ExprKind::Unary: {
      std::uint64_t v = eval_expr(*e.operands[0], ctx);
      switch (e.unary_op) {
        case hic::UnaryOp::Neg: v = ~v + 1; break;
        case hic::UnaryOp::Not: v = (v == 0) ? 1 : 0; break;
        case hic::UnaryOp::BitNot: v = ~v; break;
      }
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Binary: {
      std::uint64_t a = eval_expr(*e.operands[0], ctx);
      std::uint64_t b = eval_expr(*e.operands[1], ctx);
      std::uint64_t v = 0;
      switch (e.binary_op) {
        case hic::BinaryOp::Add: v = a + b; break;
        case hic::BinaryOp::Sub: v = a - b; break;
        case hic::BinaryOp::Mul: v = a * b; break;
        case hic::BinaryOp::Div: v = (b == 0) ? 0 : a / b; break;
        case hic::BinaryOp::Mod: v = (b == 0) ? 0 : a % b; break;
        case hic::BinaryOp::And: v = a & b; break;
        case hic::BinaryOp::Or: v = a | b; break;
        case hic::BinaryOp::Xor: v = a ^ b; break;
        case hic::BinaryOp::Shl: v = b >= 64 ? 0 : a << b; break;
        case hic::BinaryOp::Shr: v = b >= 64 ? 0 : a >> b; break;
        case hic::BinaryOp::LogAnd: v = (a != 0 && b != 0) ? 1 : 0; break;
        case hic::BinaryOp::LogOr: v = (a != 0 || b != 0) ? 1 : 0; break;
        case hic::BinaryOp::Eq: v = (a == b) ? 1 : 0; break;
        case hic::BinaryOp::Ne: v = (a != b) ? 1 : 0; break;
        case hic::BinaryOp::Lt: v = (a < b) ? 1 : 0; break;
        case hic::BinaryOp::Le: v = (a <= b) ? 1 : 0; break;
        case hic::BinaryOp::Gt: v = (a > b) ? 1 : 0; break;
        case hic::BinaryOp::Ge: v = (a >= b) ? 1 : 0; break;
      }
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Call: {
      std::vector<std::uint64_t> args;
      for (const auto& a : e.operands) args.push_back(eval_expr(*a, ctx));
      return mask_width(ctx.externs->eval(e.name, args),
                        e.type != nullptr ? e.type->bit_width() : 64);
    }
  }
  return 0;
}

}  // namespace detail

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
    for (auto& ctrl : controllers_) {
      ctrl->probe->sample(*ctrl->sim, cycle_, *trace_);
    }
  }
  observe_phase();
  for (auto& ctrl : controllers_) ctrl->sim->step();
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

/// Locates the StateAccess describing a symbol access in the current state.
const synth::StateAccess* find_access(const synth::FsmState& s,
                                      const hic::Symbol* sym, bool is_write) {
  for (const synth::StateAccess& a : s.accesses) {
    if (a.symbol == sym && a.is_write == is_write) return &a;
  }
  return nullptr;
}

}  // namespace
namespace {

using ThreadExecT = SystemSim::ThreadExec;

void drive_mem_op(ThreadExecT& t, ThreadExecT::MemOp& mo) {
  SystemSim::Controller& c = *mo.ctrl;
  rtl::ModuleSim& sim = *c.sim;
  switch (mo.stage) {
    case ThreadExecT::MemOp::Stage::PortA:
      if (c.claim_port_a(t.name)) {
        sim.set_input(c.a_en, 1);
        sim.set_input(c.a_we, mo.is_write ? 1 : 0);
        sim.set_input(c.a_addr, mo.addr);
        if (mo.is_write) sim.set_input(c.a_wdata, mo.wdata);
      }
      break;
    case ThreadExecT::MemOp::Stage::Request:
    case ThreadExecT::MemOp::Stage::EvWaitSlot: {
      // Slot is a register: reading it before settle is safe.
      if (mo.stage == ThreadExecT::MemOp::Stage::EvWaitSlot &&
          static_cast<int>(sim.get(c.slot)) != mo.target_slot) {
        break;
      }
      if (mo.is_write) {
        const auto& d = c.producer(mo.pseudo_port);
        sim.set_input(d.req, 1);
        sim.set_input(d.addr, mo.addr);
        sim.set_input(d.wdata, mo.wdata);
      } else {
        const auto& r = c.consumer(mo.pseudo_port);
        sim.set_input(r.req, 1);
        sim.set_input(r.addr, mo.addr);
      }
      break;
    }
    case ThreadExecT::MemOp::Stage::PortA_Data:
    case ThreadExecT::MemOp::Stage::WaitValid:
    case ThreadExecT::MemOp::Stage::Idle:
    case ThreadExecT::MemOp::Stage::Done:
      break;
  }
}

}  // namespace

namespace {

// `on_access(t, mo, granted, cause)` is invoked for every cycle the op
// occupies (or waits for) its port: exactly one of granted/stalled per
// cycle. The data-valid cycle of a consumer read reports through
// `record_consume` instead.
template <typename OnProduce, typename OnConsume, typename OpenRound,
          typename OnAccess>
void observe_mem_op(SystemSim::ThreadExec& t, SystemSim::ThreadExec::MemOp& mo,
                    OnProduce&& record_produce, OnConsume&& record_consume,
                    OpenRound&& open_round_of, OnAccess&& on_access) {
  using StallCause = trace::StallCause;
  SystemSim::Controller& c = *mo.ctrl;
  rtl::ModuleSim& sim = *c.sim;
  switch (mo.stage) {
    case ThreadExec::MemOp::Stage::PortA:
      if (c.a_owner == t.name) {
        on_access(t, mo, true, StallCause::None);
        if (mo.is_write) {
          mo.stage = ThreadExec::MemOp::Stage::Done;  // commits on this edge
        } else {
          mo.stage = ThreadExec::MemOp::Stage::PortA_Data;
        }
      } else {
        on_access(t, mo, false, StallCause::PortABusy);
      }
      break;
    case ThreadExec::MemOp::Stage::PortA_Data:
      // The read issued last cycle; a_rdata now holds the value.
      mo.result = sim.get(c.a_rdata);
      mo.stage = ThreadExec::MemOp::Stage::Done;
      break;
    case ThreadExec::MemOp::Stage::Request: {
      if (mo.is_write) {
        if (sim.get(c.producer(mo.pseudo_port).grant) != 0) {
          on_access(t, mo, true, StallCause::None);
          record_produce(t, mo);
          mo.stage = SystemSim::ThreadExec::MemOp::Stage::Done;
        } else {
          on_access(t, mo, false,
                    c.other_granted(c.producer_nets, mo.pseudo_port)
                        ? StallCause::ArbitrationLoss
                        : StallCause::DependencyNotProduced);
        }
      } else {
        if (sim.get(c.consumer(mo.pseudo_port).grant) != 0) {
          on_access(t, mo, true, StallCause::None);
          mo.round = open_round_of(mo);
          mo.stage = SystemSim::ThreadExec::MemOp::Stage::WaitValid;
        } else {
          on_access(t, mo, false,
                    c.other_granted(c.consumer_nets, mo.pseudo_port)
                        ? StallCause::ArbitrationLoss
                        : StallCause::DependencyNotProduced);
        }
      }
      break;
    }
    case SystemSim::ThreadExec::MemOp::Stage::EvWaitSlot: {
      if (static_cast<int>(sim.get(c.slot)) != mo.target_slot) {
        on_access(t, mo, false, StallCause::NotOurSlot);
        break;
      }
      if (mo.is_write) {
        if (sim.get(c.producer(mo.pseudo_port).grant) != 0) {
          on_access(t, mo, true, StallCause::None);
          record_produce(t, mo);
          mo.stage = SystemSim::ThreadExec::MemOp::Stage::Done;
        } else {
          on_access(t, mo, false, StallCause::DependencyNotProduced);
        }
      } else {
        // Our slot fires this edge iff our request was up.
        if (sim.get(c.consumer(mo.pseudo_port).req) != 0) {
          on_access(t, mo, true, StallCause::None);
          mo.round = open_round_of(mo);
          mo.stage = SystemSim::ThreadExec::MemOp::Stage::WaitValid;
        } else {
          on_access(t, mo, false, StallCause::DependencyNotProduced);
        }
      }
      break;
    }
    case SystemSim::ThreadExec::MemOp::Stage::WaitValid: {
      if (sim.get(c.consumer(mo.pseudo_port).valid) != 0) {
        mo.result = sim.get(c.bus_rdata);
        record_consume(t, mo);
        mo.stage = SystemSim::ThreadExec::MemOp::Stage::Done;
      } else {
        on_access(t, mo, false, StallCause::DataWait);
      }
      break;
    }
    case SystemSim::ThreadExec::MemOp::Stage::Idle:
    case SystemSim::ThreadExec::MemOp::Stage::Done:
      break;
  }
}

}  // namespace

void SystemSim::drive_phase() {
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;

    // --- Mode transitions that need no controller interaction. ---
    if (t.mode == ThreadExec::Mode::Gated) {
      if (t.gate && t.gate(cycle_)) {
        t.state = t.fsm.initial();
        t.mode = ThreadExec::Mode::Plan;
        if (trace_ != nullptr && trace_->active()) {
          trace::Event e;
          e.cycle = cycle_;
          e.kind = trace::EventKind::FsmState;
          e.thread = t.name;
          e.value = t.state;
          trace_->emit(e);
        }
      } else {
        continue;
      }
    }

    if (t.mode == ThreadExec::Mode::Plan) {
      const synth::FsmState& s = t.fsm.state(t.state);
      if (s.kind == synth::StateKind::Done) {
        ++t.passes;
        if (trace_ != nullptr && trace_->active()) {
          trace::Event e;
          e.cycle = cycle_;
          e.kind = trace::EventKind::PassComplete;
          e.thread = t.name;
          e.value = t.passes;
          trace_->emit(e);
        }
        t.mode = ThreadExec::Mode::Gated;
        continue;
      }
      // Build the plan for this state.
      t.plan.clear();
      t.plan_index = 0;
      t.operand_index = 0;
      auto add_stmt_plan = [&](const hic::Stmt* stmt, const hic::Expr* cond) {
        ThreadExec::StmtPlan p;
        p.stmt = stmt;
        p.cond = cond;
        // Collect memory operands from the value/cond expression tree.
        auto collect = [&](auto&& self, const hic::Expr& e) -> void {
          bool is_mem_leaf =
              (e.kind == hic::ExprKind::VarRef ||
               e.kind == hic::ExprKind::Index ||
               e.kind == hic::ExprKind::Member) &&
              e.symbol != nullptr && memalloc::is_memory_resident(*e.symbol);
          if (is_mem_leaf) {
            ThreadExec::StmtPlan::Operand op;
            op.expr = &e;
            p.operands.push_back(op);
            // Do not descend into the base; the index expression still
            // needs register evaluation at fetch time, checked there.
            return;
          }
          for (const auto& sub : e.operands) self(self, *sub);
        };
        if (cond != nullptr) collect(collect, *cond);
        if (stmt != nullptr && stmt->kind == hic::StmtKind::Assign) {
          collect(collect, *stmt->value);
          // The target's index expression may also read memory — reject
          // (documented restriction).
          if (stmt->target->kind == hic::ExprKind::Index &&
              expr_reads_memory(*stmt->target->operands[1])) {
            throw std::runtime_error(
                "sim: memory reads inside store index expressions are not "
                "supported");
          }
        }
        t.plan.push_back(std::move(p));
      };
      if (s.kind == synth::StateKind::Branch) {
        add_stmt_plan(nullptr, s.cond);
      } else {
        add_stmt_plan(s.stmt, nullptr);
        for (const hic::Stmt* c : s.chained) add_stmt_plan(c, nullptr);
      }
      t.mode = ThreadExec::Mode::Fetch;
    }

    if (t.mode != ThreadExec::Mode::Fetch &&
        t.mode != ThreadExec::Mode::Write) {
      continue;
    }

    const synth::FsmState& s = t.fsm.state(t.state);
    ThreadExec::StmtPlan& p = t.plan[t.plan_index];

    // --- Prepare the in-flight memory op, if a new one is needed. ---
    auto locate = [&](const hic::Symbol* sym) {
      auto loc = map_.locate(sym);
      if (loc.bram == nullptr) {
        throw std::runtime_error("sim: symbol not in memory map: " +
                                 sym->qualified_name());
      }
      return loc;
    };
    auto controller_of = [&](int bram_id) -> Controller* {
      for (auto& c : controllers_) {
        if (c->bram_id == bram_id) return c.get();
      }
      throw std::runtime_error("sim: no controller for bram");
    };

    auto element_addr = [&](const hic::Expr& e,
                            const memalloc::MemoryMap::Location& loc)
        -> std::uint64_t {
      std::uint64_t base = loc.placement->base_address;
      if (e.kind == hic::ExprKind::Index) {
        if (expr_reads_memory(*e.operands[1])) {
          throw std::runtime_error(
              "sim: memory reads inside index expressions are not supported");
        }
        detail::EvalCtx ctx{&t, &externs_, nullptr};
        std::uint64_t idx = detail::eval_expr(*e.operands[1], ctx);
        std::uint64_t words_per_elem =
            loc.placement->words / e.symbol->element_count();
        if (words_per_elem == 0) words_per_elem = 1;
        std::uint64_t elems = e.symbol->element_count();
        return base + (idx % elems) * words_per_elem;
      }
      return base;
    };

    if (t.mode == ThreadExec::Mode::Fetch) {
      // All operands fetched? Compute and move to write.
      while (t.operand_index < p.operands.size() &&
             p.operands[t.operand_index].fetched) {
        ++t.operand_index;
      }
      if (t.operand_index >= p.operands.size()) {
        // Compute this statement's value.
        std::map<const hic::Expr*, std::uint64_t> memvals;
        for (const auto& op : p.operands) memvals[op.expr] = op.op.result;
        detail::EvalCtx ctx{&t, &externs_, &memvals};
        if (p.cond != nullptr) {
          t.branch_value = detail::eval_expr(*p.cond, ctx);
          p.computed_valid = true;
          t.mode = ThreadExec::Mode::Advance;
        } else {
          p.computed = detail::eval_expr(*p.stmt->value, ctx);
          p.computed_valid = true;
          // Set up the write.
          const hic::Expr* target = p.stmt->target.get();
          const hic::Expr* root = target;
          while (root->kind == hic::ExprKind::Index ||
                 root->kind == hic::ExprKind::Member) {
            root = root->operands[0].get();
          }
          hic::Symbol* sym = root->symbol;
          if (sym != nullptr && memalloc::is_memory_resident(*sym)) {
            auto loc = locate(sym);
            p.write.ctrl = controller_of(loc.bram->id);
            p.write.is_write = true;
            p.write.addr = element_addr(*target, loc);
            p.write.wdata =
                mask_width(p.computed, sym->type()->bit_width());
            const synth::StateAccess* acc = find_access(s, sym, true);
            p.write.role = acc != nullptr ? acc->role
                                          : synth::AccessRole::Plain;
            p.write.dep = acc != nullptr ? acc->dep : nullptr;
            p.write.stage = ThreadExec::MemOp::Stage::Idle;
            t.mode = ThreadExec::Mode::Write;
          } else {
            // Register write completes instantly.
            if (sym != nullptr) {
              t.regs[sym] =
                  mask_width(p.computed, sym->type()->bit_width());
            }
            t.mode = ThreadExec::Mode::Advance;
          }
        }
      } else {
        // Drive the current operand's memory op.
        ThreadExec::StmtPlan::Operand& op = p.operands[t.operand_index];
        ThreadExec::MemOp& mo = op.op;
        if (mo.stage == ThreadExec::MemOp::Stage::Idle) {
          auto loc = locate(op.expr->symbol);
          mo.ctrl = controller_of(loc.bram->id);
          mo.is_write = false;
          mo.addr = element_addr(*op.expr, loc);
          const synth::StateAccess* acc =
              find_access(s, op.expr->symbol, false);
          mo.role = acc != nullptr ? acc->role : synth::AccessRole::Plain;
          mo.dep = acc != nullptr ? acc->dep : nullptr;
          if (mo.role == synth::AccessRole::ConsumerRead) {
            mo.pseudo_port =
                mo.ctrl->pseudo_port(t.name, memalloc::LogicalPort::C);
            if (mo.ctrl->kind == OrgKind::EventDriven) {
              mo.target_slot =
                  mo.ctrl->slot_of(mo.dep->id, false, mo.pseudo_port);
              mo.stage = ThreadExec::MemOp::Stage::EvWaitSlot;
            } else {
              mo.stage = ThreadExec::MemOp::Stage::Request;
            }
          } else {
            mo.stage = ThreadExec::MemOp::Stage::PortA;
          }
        }
        drive_mem_op(t, mo);
      }
    }

    if (t.mode == ThreadExec::Mode::Write) {
      ThreadExec::MemOp& mo = p.write;
      if (mo.stage == ThreadExec::MemOp::Stage::Idle) {
        if (mo.role == synth::AccessRole::ProducerWrite) {
          mo.pseudo_port =
              mo.ctrl->pseudo_port(t.name, memalloc::LogicalPort::D);
          if (mo.ctrl->kind == OrgKind::EventDriven) {
            mo.target_slot = mo.ctrl->slot_of(mo.dep->id, true,
                                              mo.pseudo_port);
            mo.stage = ThreadExec::MemOp::Stage::EvWaitSlot;
          } else {
            mo.stage = ThreadExec::MemOp::Stage::Request;
          }
        } else {
          mo.stage = ThreadExec::MemOp::Stage::PortA;
        }
      }
      drive_mem_op(t, mo);
    }
  }
}
void SystemSim::observe_phase() {
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    if (t.mode != ThreadExec::Mode::Fetch &&
        t.mode != ThreadExec::Mode::Write &&
        t.mode != ThreadExec::Mode::Advance) {
      continue;
    }

    if (t.mode == ThreadExec::Mode::Fetch ||
        t.mode == ThreadExec::Mode::Write) {
      ThreadExec::StmtPlan& p = t.plan[t.plan_index];
      ThreadExec::MemOp* mo = nullptr;
      if (t.mode == ThreadExec::Mode::Fetch &&
          t.operand_index < p.operands.size()) {
        mo = &p.operands[t.operand_index].op;
      } else if (t.mode == ThreadExec::Mode::Write) {
        mo = &p.write;
      }
      if (mo != nullptr && mo->ctrl != nullptr) {
        const bool tracing = trace_ != nullptr && trace_->active();
        auto port_kind_of = [](const ThreadExec::MemOp& m2) {
          switch (m2.role) {
            case synth::AccessRole::ConsumerRead: return trace::PortKind::C;
            case synth::AccessRole::ProducerWrite: return trace::PortKind::D;
            case synth::AccessRole::Plain: break;
          }
          return trace::PortKind::A;
        };
        auto base_event = [&](const ThreadExec& te,
                              const ThreadExec::MemOp& m2) {
          trace::Event e;
          e.cycle = cycle_;
          e.controller = m2.ctrl->bram_id;
          e.port = port_kind_of(m2);
          e.pseudo_port = m2.pseudo_port;
          e.thread = te.name;
          if (m2.dep != nullptr) e.dep = m2.dep->id;
          return e;
        };
        observe_mem_op(
            t, *mo,
            [this, tracing, &base_event](ThreadExec& te,
                                         ThreadExec::MemOp& m2) {
              if (m2.dep == nullptr) return;
              DepRound round;
              round.dep_id = m2.dep->id;
              round.produce_grant_cycle = cycle_;
              open_round_[m2.dep->id] = rounds_.size();
              rounds_.push_back(std::move(round));
              if (tracing) {
                trace::Event e = base_event(te, m2);
                e.kind = trace::EventKind::Produce;
                trace_->emit(e);
              }
            },
            [this, tracing, &base_event](ThreadExec& te,
                                         ThreadExec::MemOp& m2) {
              if (tracing && te.trace_blocked) {
                trace::Event e = base_event(te, m2);
                e.kind = trace::EventKind::ThreadUnblock;
                trace_->emit(e);
                te.trace_blocked = false;
              }
              m2.wait_cycles = 0;
              if (m2.dep == nullptr) return;
              if (tracing) {
                trace::Event e = base_event(te, m2);
                e.kind = trace::EventKind::Consume;
                trace_->emit(e);
              }
              if (m2.round >= rounds_.size()) return;
              rounds_[m2.round].consume_cycles.emplace_back(te.name, cycle_);
              if (tracing && rounds_[m2.round].consume_cycles.size() ==
                                 m2.dep->consumers.size()) {
                trace::Event e = base_event(te, m2);
                e.kind = trace::EventKind::RoundComplete;
                e.value = static_cast<std::int64_t>(
                    rounds_[m2.round].completion_latency());
                trace_->emit(e);
              }
            },
            [this](ThreadExec::MemOp& m2) -> std::size_t {
              if (m2.dep == nullptr) return static_cast<std::size_t>(-1);
              auto it = open_round_.find(m2.dep->id);
              return it == open_round_.end() ? static_cast<std::size_t>(-1)
                                             : it->second;
            },
            [this, tracing, &base_event](ThreadExec& te,
                                         ThreadExec::MemOp& m2, bool granted,
                                         trace::StallCause cause) {
              if (granted) {
                m2.wait_cycles = 0;
              } else {
                ++m2.wait_cycles;
              }
              if (!tracing) return;
              trace::Event e = base_event(te, m2);
              e.kind = trace::EventKind::PortRequest;
              trace_->emit(e);
              if (granted) {
                e.kind = trace::EventKind::PortGrant;
                trace_->emit(e);
                if (te.trace_blocked) {
                  e.kind = trace::EventKind::ThreadUnblock;
                  trace_->emit(e);
                  te.trace_blocked = false;
                }
              } else {
                e.kind = trace::EventKind::PortStall;
                e.cause = cause;
                trace_->emit(e);
                if (!te.trace_blocked) {
                  e.kind = trace::EventKind::ThreadBlock;
                  e.cause = trace::StallCause::None;
                  trace_->emit(e);
                  te.trace_blocked = true;
                }
              }
            });
        if (mo->stage == ThreadExec::MemOp::Stage::Done) {
          if (t.mode == ThreadExec::Mode::Fetch) {
            p.operands[t.operand_index].fetched = true;
            mo->ctrl->release_port_a(t.name);
            // Fetch loop continues next cycle (or computes next drive).
          } else {
            mo->ctrl->release_port_a(t.name);
            t.mode = ThreadExec::Mode::Advance;
          }
        }
      }
    }

    if (t.mode == ThreadExec::Mode::Advance) {
      ThreadExec::StmtPlan& p = t.plan[t.plan_index];
      if (p.cond == nullptr && t.plan_index + 1 < t.plan.size()) {
        // Chained statement: move to the next statement in this state.
        ++t.plan_index;
        t.operand_index = 0;
        t.mode = ThreadExec::Mode::Fetch;
        continue;
      }
      // Choose the successor state.
      const synth::FsmState& s = t.fsm.state(t.state);
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
      if (trace_ != nullptr && trace_->active() && next != t.state) {
        trace::Event e;
        e.cycle = cycle_;
        e.kind = trace::EventKind::FsmState;
        e.thread = t.name;
        e.value = next;
        trace_->emit(e);
      }
      t.state = next;
      t.mode = ThreadExec::Mode::Plan;
    }
  }
}
}  // namespace hicsync::sim
