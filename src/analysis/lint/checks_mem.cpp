// Memory-centric checks: unreachable statements, produced-but-never-consumed
// shared data, dead memory-resident arrays, and port/capacity pressure on
// the planned BRAM controllers.

#include <set>
#include <string>

#include "analysis/lint/checks.h"
#include "memorg/eventdriven.h"
#include "support/strings.h"

namespace hicsync::analysis::lint {

namespace {

// ---------------------------------------------------------------------------
// unreachable-stmt
// ---------------------------------------------------------------------------

class UnreachableStmtCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "unreachable-stmt", support::Severity::Warning, Stage::PostSema,
        "control flow can never reach the statement from the thread entry "
        "(dead code, typically after break/continue)"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    for (const Cfg& cfg : ctx.cfgs()) {
      std::vector<char> reachable = reachable_from(cfg, cfg.entry());
      std::set<const hic::Stmt*> reported;
      for (const CfgNode& n : cfg.nodes()) {
        if (reachable[static_cast<std::size_t>(n.id)]) continue;
        if (n.kind != CfgNodeKind::Statement &&
            n.kind != CfgNodeKind::Branch) {
          continue;
        }
        if (n.stmt == nullptr || !n.stmt->loc.valid()) continue;
        if (!reported.insert(n.stmt).second) continue;
        sink(n.stmt->loc,
             support::format(
                 "unreachable statement in thread '%s': control cannot "
                 "reach it from the thread entry",
                 cfg.thread_name().c_str()));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// dead-shared-variable
// ---------------------------------------------------------------------------

class DeadSharedVariableCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "dead-shared-variable", support::Severity::Warning, Stage::PostSema,
        "produced-but-never-consumed shared data or never-read memory-"
        "resident arrays wasting BRAM words"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    // (a) A bound consumer statement that never actually reads the produced
    // variable: the produced value is dead on arrival, and the consumer's
    // guarded read may never be issued at all.
    for (const hic::Dependency& dep : ctx.sema().dependencies()) {
      for (const hic::DepConsumer& c : dep.consumers) {
        const std::vector<Access>* accesses = ctx.accesses(c.thread);
        if (accesses == nullptr) continue;
        bool reads = false;
        for (const Access& a : *accesses) {
          if (a.stmt == c.stmt && a.symbol == dep.shared_var && !a.is_def) {
            reads = true;
            break;
          }
        }
        if (!reads) {
          sink(c.stmt != nullptr ? c.stmt->loc : c.loc,
               support::format(
                   "consumer '%s' of dependency '%s' never reads the "
                   "produced variable '%s'; the produced value is dead and "
                   "its %llu BRAM word(s) are wasted",
                   c.thread.c_str(), dep.id.c_str(),
                   dep.shared_var->qualified_name().c_str(),
                   static_cast<unsigned long long>(
                       dep.shared_var->element_count())));
        }
      }
    }

    // (b) Memory-resident arrays that are never read anywhere. A non-shared
    // array can only be read by its owner thread; zero uses means every
    // word the allocator reserves for it is wasted.
    for (const hic::ThreadDecl& thread : ctx.program().threads) {
      const std::vector<Access>* accesses = ctx.accesses(thread.name);
      const hic::SymbolTable* table = ctx.sema().thread_table(thread.name);
      if (accesses == nullptr || table == nullptr) continue;
      for (hic::Symbol* sym : table->symbols()) {
        if (!sym->is_array() || sym->is_shared()) continue;
        bool used = false;
        for (const Access& a : *accesses) {
          if (a.symbol == sym && !a.is_def) {
            used = true;
            break;
          }
        }
        if (!used) {
          sink(sym->loc(),
               support::format(
                   "array '%s' is never read; its %llu BRAM word(s) are "
                   "allocated for nothing",
                   sym->qualified_name().c_str(),
                   static_cast<unsigned long long>(sym->element_count())));
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// port-pressure
// ---------------------------------------------------------------------------

class PortPressureCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "port-pressure", support::Severity::Warning, Stage::PreGenerate,
        "planned pseudo-port, schedule-slot, or BRAM capacity pressure "
        "that degrades or breaks the generated controller"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    const memalloc::MemoryMap* map = ctx.memory_map();
    const std::vector<memalloc::BramPortPlan>* plans = ctx.port_plans();
    if (map == nullptr || plans == nullptr) return;

    // The paper's experiments (Tables 1/2) sweep up to 8 consumer
    // pseudo-ports; past that the arbitration tree depth grows beyond the
    // evaluated design space.
    constexpr int kEvaluatedConsumerPorts = 8;

    for (const memalloc::BramInstance& bram : map->brams()) {
      const memalloc::BramPortPlan* plan = nullptr;
      for (const auto& p : *plans) {
        if (p.bram_id == bram.id) plan = &p;
      }
      if (plan == nullptr) continue;

      support::SourceLoc anchor;
      if (!bram.dependencies.empty()) {
        anchor = bram.dependencies.front()->loc;
      }

      int consumer_ports = plan->consumer_pseudo_ports();
      if (consumer_ports > kEvaluatedConsumerPorts) {
        sink(anchor,
             support::format(
                 "BRAM %d needs %d consumer pseudo-ports, beyond the "
                 "evaluated arbitration range of %d; expect the controller "
                 "to miss the target clock",
                 bram.id, consumer_ports, kEvaluatedConsumerPorts));
      }

      int slots = 0;
      for (const hic::Dependency* dep : bram.dependencies) {
        slots += 1 + static_cast<int>(dep->consumers.size());
      }
      if (slots > memorg::kEventDrivenBaselineSlots) {
        sink(anchor,
             support::format(
                 "BRAM %d needs %d event-driven schedule slots, over the "
                 "selection logic's %d-slot budget; the slot counter "
                 "widens and worst-case consume latency grows linearly",
                 bram.id, slots, memorg::kEventDrivenBaselineSlots));
      }

      // A dependency whose listed consumers outnumber the pseudo-ports that
      // serve it (duplicate consumer threads) makes the countdown counter
      // wait for more reads than ports can issue.
      for (const hic::Dependency* dep : bram.dependencies) {
        int serving = 0;
        for (const auto& client : plan->clients) {
          if (client.port != memalloc::LogicalPort::C) continue;
          for (const hic::Dependency* d : client.deps) {
            if (d == dep) ++serving;
          }
        }
        if (dep->dependency_number() > serving) {
          sink(dep->loc,
               support::format(
                   "dependency '%s' has dependency number %d but only %d "
                   "consumer pseudo-port(s) serve it on BRAM %d; its "
                   "countdown counter can never reach zero and producers "
                   "stall",
                   dep->id.c_str(), dep->dependency_number(), serving,
                   bram.id));
        }
      }

      std::uint32_t capacity =
          static_cast<std::uint32_t>(bram.shape.depth) *
          static_cast<std::uint32_t>(bram.primitives);
      if (bram.words_used() > capacity) {
        sink(anchor,
             support::format(
                 "BRAM %d packs %u words into a %u-word shape (%dx%d x %d "
                 "primitive(s)); the allocation overflows the block",
                 bram.id, bram.words_used(), capacity, bram.shape.depth,
                 bram.shape.width, bram.primitives));
      }
    }
  }
};

}  // namespace

std::unique_ptr<LintPass> make_unreachable_stmt_check() {
  return std::make_unique<UnreachableStmtCheck>();
}
std::unique_ptr<LintPass> make_dead_shared_variable_check() {
  return std::make_unique<DeadSharedVariableCheck>();
}
std::unique_ptr<LintPass> make_port_pressure_check() {
  return std::make_unique<PortPressureCheck>();
}

}  // namespace hicsync::analysis::lint
