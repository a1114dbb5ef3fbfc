#include "analysis/depgraph.h"

#include <algorithm>
#include <utility>

#include "support/graph.h"

namespace hicsync::analysis {

ThreadDepGraph ThreadDepGraph::build(
    const hic::Program& program, const std::vector<hic::Dependency>& deps) {
  ThreadDepGraph g;
  for (const auto& t : program.threads) {
    g.thread_ids_.emplace(t.name, static_cast<int>(g.threads_.size()));
    g.threads_.push_back(t.name);
  }
  std::vector<std::pair<int, int>> arcs;
  for (const auto& dep : deps) {
    int from = g.thread_index(dep.producer_thread);
    if (from < 0) continue;
    for (const auto& c : dep.consumers) {
      int to = g.thread_index(c.thread);
      if (to < 0) continue;
      g.edges_.push_back(Edge{from, to, &dep});
      arcs.emplace_back(from, to);
    }
  }
  const auto csr = support::Csr::from_edges(
      static_cast<int>(g.threads_.size()), arcs);
  const support::Scc scc = support::strongly_connected(csr);
  for (int c = 0; c < scc.count(); ++c) {
    if (!scc.cyclic(csr, c)) continue;
    const std::span<const int> m = scc.members(c);
    std::vector<int> cycle(m.begin(), m.end());
    std::sort(cycle.begin(), cycle.end());
    g.cycles_.push_back(std::move(cycle));
  }
  return g;
}

int ThreadDepGraph::thread_index(const std::string& name) const {
  auto it = thread_ids_.find(name);
  return it == thread_ids_.end() ? -1 : it->second;
}

std::vector<std::string> ThreadDepGraph::deadlock_reports() const {
  std::vector<std::string> out;
  for (const auto& cycle : cycles_) {
    std::string msg = "potential deadlock: threads {";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += threads_[static_cast<std::size_t>(cycle[i])];
    }
    msg += "} form a producer/consumer cycle";
    // Name the dependencies inside the cycle.
    msg += " via";
    bool first = true;
    for (const Edge& e : edges_) {
      bool from_in = std::find(cycle.begin(), cycle.end(), e.from) != cycle.end();
      bool to_in = std::find(cycle.begin(), cycle.end(), e.to) != cycle.end();
      if (from_in && to_in) {
        msg += first ? " " : ", ";
        msg += e.dep->id;
        first = false;
      }
    }
    out.push_back(std::move(msg));
  }
  return out;
}

}  // namespace hicsync::analysis
