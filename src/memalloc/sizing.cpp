#include "memalloc/sizing.h"

#include <cstdint>

#include "memalloc/bram.h"

namespace hicsync::memalloc {

bool is_memory_resident(const hic::Symbol& sym) {
  return sym.is_array() || sym.is_shared();
}

PrunedBram apply_dep_list_hint(const BramInstance& bram,
                               const BramPortPlan& plan,
                               const DepListHint& hint) {
  PrunedBram out;
  out.bram = bram;
  out.plan = plan;
  if (hint.dead_deps.empty()) return out;

  auto is_dead = [&](const hic::Dependency* d) {
    for (const std::string& id : hint.dead_deps) {
      if (d != nullptr && d->id == id) return true;
    }
    return false;
  };

  auto& deps = out.bram.dependencies;
  for (auto it = deps.begin(); it != deps.end();) {
    if (is_dead(*it)) {
      it = deps.erase(it);
      ++out.removed_deps;
    } else {
      ++it;
    }
  }

  // Drop dead dependencies from each client, then drop C/D clients left
  // with no dependencies, then renumber pseudo-ports densely per logical
  // port (entry consumer_ports/producer_port indices are rebuilt by
  // build_dep_entries from the pruned plan, so density is all that
  // matters).
  auto& clients = out.plan.clients;
  for (PortClient& c : clients) {
    for (auto it = c.deps.begin(); it != c.deps.end();) {
      it = is_dead(*it) ? c.deps.erase(it) : it + 1;
    }
  }
  for (auto it = clients.begin(); it != clients.end();) {
    bool droppable = (it->port == LogicalPort::C || it->port == LogicalPort::D) &&
                     it->deps.empty();
    if (droppable) {
      if (it->port == LogicalPort::C) ++out.removed_consumer_ports;
      if (it->port == LogicalPort::D) ++out.removed_producer_ports;
      it = clients.erase(it);
    } else {
      ++it;
    }
  }
  int next_c = 0;
  int next_d = 0;
  for (PortClient& c : clients) {
    if (c.port == LogicalPort::C) c.pseudo_port = next_c++;
    if (c.port == LogicalPort::D) c.pseudo_port = next_d++;
  }
  return out;
}

int naive_bram_bound(const hic::Sema& sema) {
  int total = 0;
  for (const hic::Symbol* sym : sema.all_symbols()) {
    if (!is_memory_resident(*sym)) continue;
    total += BramModel::primitives_for(
        sym->type()->bit_width(),
        static_cast<std::int64_t>(sym->element_count()));
  }
  return total;
}

}  // namespace hicsync::memalloc
