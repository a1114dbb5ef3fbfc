// Synchronization checks: unsynchronized cross-thread accesses, statement-
// level consume-before-produce deadlocks, and duplicate producer writes.

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "analysis/lint/checks.h"
#include "support/strings.h"

namespace hicsync::analysis::lint {

namespace {

std::string loc_str(support::SourceLoc loc) {
  return loc.valid() ? loc.str() : "<unknown>";
}

/// Renders a CFG path as the source locations of its executable nodes.
std::string render_path(const Cfg& cfg, const std::vector<int>& path) {
  std::string out;
  for (int id : path) {
    const CfgNode& n = cfg.node(id);
    if (n.kind != CfgNodeKind::Statement && n.kind != CfgNodeKind::Branch) {
      continue;
    }
    if (n.stmt == nullptr || !n.stmt->loc.valid()) continue;
    if (!out.empty()) out += " -> ";
    out += n.stmt->loc.str();
  }
  return out;
}

/// True when `stmt` in `thread` is a bound consume site of a dependency on
/// `symbol` (i.e. the guarded read the paper's model synchronizes).
bool is_bound_consume(const hic::Sema& sema, const std::string& thread,
                      const hic::Stmt* stmt, const hic::Symbol* symbol) {
  for (const hic::Dependency& dep : sema.dependencies()) {
    if (dep.shared_var != symbol) continue;
    for (const hic::DepConsumer& c : dep.consumers) {
      if (c.thread == thread && c.stmt == stmt) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// race-unsynced-access
// ---------------------------------------------------------------------------

class RaceUnsyncedAccessCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "race-unsynced-access", support::Severity::Error, Stage::PostSema,
        "a thread accesses another thread's variable with no bound "
        "dependency covering the statement (unsynchronized, can race)"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    for (const hic::ThreadDecl& thread : ctx.program().threads) {
      const std::vector<Access>* accesses = ctx.accesses(thread.name);
      if (accesses == nullptr) continue;
      std::set<std::pair<const hic::Stmt*, const hic::Symbol*>> reported;
      for (const Access& a : *accesses) {
        if (a.symbol == nullptr || a.stmt == nullptr) continue;
        if (a.symbol->thread() == thread.name) continue;  // local access
        if (is_bound_consume(ctx.sema(), thread.name, a.stmt, a.symbol)) {
          continue;
        }
        if (!reported.insert({a.stmt, a.symbol}).second) continue;
        sink(a.stmt->loc,
             support::format(
                 "thread '%s' %s '%s' with no bound dependency covering "
                 "this statement; the access is unsynchronized and races "
                 "with the producer",
                 thread.name.c_str(), a.is_def ? "writes" : "reads",
                 a.symbol->qualified_name().c_str()));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// consume-before-produce
// ---------------------------------------------------------------------------

class ConsumeBeforeProduceCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "consume-before-produce", support::Severity::Error, Stage::PostSema,
        "in a dependency cycle every thread's blocking consumer read can "
        "precede the producer write its peer waits on (statement-level "
        "deadlock with a path witness)"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    const ThreadDepGraph& g = ctx.depgraph();
    for (const std::vector<int>& scc : g.deadlock_cycles()) {
      std::set<std::string> members;
      for (int t : scc) {
        members.insert(g.threads()[static_cast<std::size_t>(t)]);
      }

      // For each member thread, find a (consume, produce) statement pair
      // inside the cycle where the blocking read may execute first.
      struct Witness {
        std::string thread;
        const hic::Dependency* consumed = nullptr;
        const hic::Dependency* produced = nullptr;
        const hic::Stmt* consume_stmt = nullptr;
        std::string path;
      };
      std::vector<Witness> witnesses;
      bool all_ordered = true;
      for (int ti : scc) {
        const std::string& name = g.threads()[static_cast<std::size_t>(ti)];
        const Cfg* cfg = ctx.cfg(name);
        if (cfg == nullptr) {
          all_ordered = false;
          break;
        }
        Witness w;
        for (const hic::Dependency& din : ctx.sema().dependencies()) {
          if (members.count(din.producer_thread) == 0) continue;
          const hic::DepConsumer* consume = nullptr;
          for (const hic::DepConsumer& c : din.consumers) {
            if (c.thread == name) consume = &c;
          }
          if (consume == nullptr) continue;
          int cnode = stmt_node(*cfg, consume->stmt);
          for (const hic::Dependency& dout : ctx.sema().dependencies()) {
            if (dout.producer_thread != name) continue;
            bool feeds_cycle = false;
            for (const hic::DepConsumer& c : dout.consumers) {
              if (members.count(c.thread) != 0) feeds_cycle = true;
            }
            if (!feeds_cycle) continue;
            int pnode = stmt_node(*cfg, dout.producer_stmt);
            std::vector<int> path = shortest_path(*cfg, cnode, pnode);
            if (path.empty()) continue;  // produce always precedes consume
            w.thread = name;
            w.consumed = &din;
            w.produced = &dout;
            w.consume_stmt = consume->stmt;
            w.path = render_path(*cfg, path);
            break;
          }
          if (w.consumed != nullptr) break;
        }
        if (w.consumed == nullptr) {
          // Some thread always produces before it consumes: the cycle is
          // pipelined, not a deadlock. Refines the SCC-level report away.
          all_ordered = false;
          break;
        }
        witnesses.push_back(std::move(w));
      }
      if (!all_ordered || witnesses.empty()) continue;

      std::string msg = "statement-level deadlock: threads {";
      bool first = true;
      for (const std::string& t : members) {
        if (!first) msg += ", ";
        msg += t;
        first = false;
      }
      msg += "} all consume before they produce;";
      for (const Witness& w : witnesses) {
        msg += support::format(
            " '%s' blocks consuming '%s' at %s before producing '%s' at %s "
            "(path %s);",
            w.thread.c_str(), w.consumed->id.c_str(),
            loc_str(w.consume_stmt->loc).c_str(), w.produced->id.c_str(),
            loc_str(w.produced->producer_stmt->loc).c_str(),
            w.path.c_str());
      }
      msg.pop_back();  // trailing ';'
      sink(witnesses.front().consume_stmt->loc, std::move(msg));
    }
  }
};

// ---------------------------------------------------------------------------
// duplicate-producer-write
// ---------------------------------------------------------------------------

class DuplicateProducerWriteCheck final : public LintPass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "duplicate-producer-write", support::Severity::Warning,
        Stage::PostSema,
        "a dependency's shared variable is also written outside (or more "
        "than once by) its producing statement — write-after-write hazard"};
    return kInfo;
  }

  void run(const LintContext& ctx, const Sink& sink) const override {
    for (const hic::Dependency& dep : ctx.sema().dependencies()) {
      const std::vector<Access>* accesses = ctx.accesses(dep.producer_thread);
      const Cfg* cfg = ctx.cfg(dep.producer_thread);
      if (accesses == nullptr || cfg == nullptr) continue;

      std::set<const hic::Stmt*> reported;
      for (const Access& a : *accesses) {
        if (!a.is_def || a.symbol != dep.shared_var) continue;
        if (a.stmt == dep.producer_stmt) continue;
        if (!reported.insert(a.stmt).second) continue;
        sink(a.stmt->loc,
             support::format(
                 "'%s' is written here but only the producing statement of "
                 "dependency '%s' (at %s) releases its consumers; this "
                 "write can clobber the produced value (write-after-write)",
                 dep.shared_var->qualified_name().c_str(), dep.id.c_str(),
                 loc_str(dep.producer_stmt->loc).c_str()));
      }

      // A producing statement inside a loop executes more than once per
      // pass: each iteration re-produces before consumers drained the last.
      int pnode = stmt_node(*cfg, dep.producer_stmt);
      if (pnode >= 0) {
        bool in_loop = false;
        for (int v : cfg->node(pnode).succs) {
          // pnode reaches itself through some successor => it sits on a
          // CFG cycle.
          if (reachable_from(*cfg, v)[static_cast<std::size_t>(pnode)]) {
            in_loop = true;
            break;
          }
        }
        if (in_loop) {
          sink(dep.producer_stmt->loc,
               support::format(
                   "producing statement of dependency '%s' is inside a "
                   "loop and may execute more than once per pass "
                   "(duplicate produce of '%s')",
                   dep.id.c_str(),
                   dep.shared_var->qualified_name().c_str()));
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<LintPass> make_race_unsynced_access_check() {
  return std::make_unique<RaceUnsyncedAccessCheck>();
}
std::unique_ptr<LintPass> make_consume_before_produce_check() {
  return std::make_unique<ConsumeBeforeProduceCheck>();
}
std::unique_ptr<LintPass> make_duplicate_producer_write_check() {
  return std::make_unique<DuplicateProducerWriteCheck>();
}

}  // namespace hicsync::analysis::lint
