#include "verify/model.h"

#include "support/strings.h"

namespace hicsync::verify {

const char* to_string(SyncOp::Kind k) {
  switch (k) {
    case SyncOp::Kind::Consume: return "consume";
    case SyncOp::Kind::Produce: return "produce";
  }
  return "?";
}

namespace {

/// Id of the CFG Statement node executing `stmt`; -1 when absent.
int node_of(const analysis::Cfg& cfg, const hic::Stmt* stmt) {
  for (const analysis::CfgNode& n : cfg.nodes()) {
    if (n.kind == analysis::CfgNodeKind::Statement && n.stmt == stmt) {
      return n.id;
    }
  }
  return -1;
}

}  // namespace

ProgramModel ProgramModel::build(
    const hic::Program& program, const hic::Sema& sema,
    const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans,
    sim::OrgKind organization) {
  ProgramModel m;
  m.organization_ = organization;

  for (const hic::ThreadDecl& t : program.threads) {
    ThreadModel tm;
    tm.name = t.name;
    tm.cfg = analysis::Cfg::build(t);
    tm.entry = tm.cfg.entry();
    tm.nodes.resize(tm.cfg.nodes().size());
    for (const analysis::CfgNode& n : tm.cfg.nodes()) {
      NodeModel& nm = tm.nodes[static_cast<std::size_t>(n.id)];
      nm.succs = n.succs;
      // Run-to-completion restart: Exit loops back to Entry. Message
      // arrival gating is subsumed by interleaving nondeterminism (the
      // restart step can be delayed arbitrarily).
      if (n.kind == analysis::CfgNodeKind::Exit) {
        nm.succs.push_back(tm.cfg.entry());
      }
    }
    m.thread_ids_.emplace(tm.name, static_cast<int>(m.threads_.size()));
    m.threads_.push_back(std::move(tm));
  }

  // Global dependency table in Sema (program) order; the per-BRAM lists
  // below index into it.
  int gi = 0;
  for (const hic::Dependency& dep : sema.dependencies()) {
    DepModel dm;
    dm.dep = &dep;
    dm.dependency_number = dep.dependency_number();
    dm.producer_thread = m.thread_index(dep.producer_thread);
    if (dm.producer_thread >= 0) {
      const ThreadModel& tm =
          m.threads_[static_cast<std::size_t>(dm.producer_thread)];
      dm.producer_node = node_of(tm.cfg, dep.producer_stmt);
    }
    for (const hic::DepConsumer& c : dep.consumers) {
      DepModel::ConsumeSite site;
      site.thread = m.thread_index(c.thread);
      if (site.thread >= 0) {
        const ThreadModel& tm =
            m.threads_[static_cast<std::size_t>(site.thread)];
        site.node = node_of(tm.cfg, c.stmt);
      }
      dm.consume_sites.push_back(site);
    }
    m.deps_.push_back(std::move(dm));
    ++gi;
  }
  (void)gi;

  // Controllers: one per BRAM that carries dependencies, in BRAM order.
  // The dependency-list / slot-schedule order inside a controller is the
  // BRAM's dependency order (the §3.2 modulo schedule follows it).
  auto global_index = [&](const hic::Dependency* dep) -> int {
    for (std::size_t i = 0; i < m.deps_.size(); ++i) {
      if (m.deps_[i].dep == dep) return static_cast<int>(i);
    }
    return -1;
  };
  for (const memalloc::BramInstance& bram : map.brams()) {
    if (bram.dependencies.empty()) continue;
    ControllerModel cm;
    cm.bram_id = bram.id;
    int ci = static_cast<int>(m.controllers_.size());
    int slot = 0;
    for (const hic::Dependency* dep : bram.dependencies) {
      int di = global_index(dep);
      if (di < 0) continue;
      cm.deps.push_back(di);
      DepModel& dm = m.deps_[static_cast<std::size_t>(di)];
      dm.controller = ci;
      // Slot sequence per dependency: producer slot, then one slot per
      // consumer in pragma order.
      if (dm.producer_thread >= 0 && dm.producer_node >= 0) {
        SyncOp op;
        op.kind = SyncOp::Kind::Produce;
        op.dep = di;
        op.controller = ci;
        op.slot = slot;
        m.threads_[static_cast<std::size_t>(dm.producer_thread)]
            .nodes[static_cast<std::size_t>(dm.producer_node)]
            .ops.push_back(op);
      }
      ++slot;
      for (std::size_t k = 0; k < dm.consume_sites.size(); ++k) {
        const DepModel::ConsumeSite& site = dm.consume_sites[k];
        if (site.thread >= 0 && site.node >= 0) {
          SyncOp op;
          op.kind = SyncOp::Kind::Consume;
          op.dep = di;
          op.consumer = static_cast<int>(k);
          op.controller = ci;
          op.slot = slot;
          m.threads_[static_cast<std::size_t>(site.thread)]
              .nodes[static_cast<std::size_t>(site.node)]
              .ops.push_back(op);
        }
        ++slot;
      }
    }
    cm.cam_capacity = static_cast<int>(cm.deps.size());
    cm.total_slots = slot;
    for (const auto& plan : plans) {
      if (plan.bram_id != bram.id) continue;
      cm.consumer_ports = plan.consumer_pseudo_ports();
      cm.producer_ports = plan.producer_pseudo_ports();
    }
    m.controllers_.push_back(std::move(cm));
  }

  return m;
}

int ProgramModel::thread_index(const std::string& name) const {
  auto it = thread_ids_.find(name);
  return it == thread_ids_.end() ? -1 : it->second;
}

std::string ProgramModel::op_str(const SyncOp& op) const {
  const DepModel& d = deps_[static_cast<std::size_t>(op.dep)];
  return support::format("%s '%s'", to_string(op.kind), d.dep->id.c_str());
}

int ProgramModel::fairness_window(int controller) const {
  const ControllerModel& c =
      controllers_[static_cast<std::size_t>(controller)];
  if (organization_ == sim::OrgKind::EventDriven) return 1;
  // Round-robin over the C pseudo-ports, each grant preemptible by the
  // higher-priority D port once per producer, plus the read-data cycle.
  int window = (c.consumer_ports > 0 ? c.consumer_ports - 1 : 0) +
               c.producer_ports + 1;
  return window < 1 ? 1 : window;
}

}  // namespace hicsync::verify
