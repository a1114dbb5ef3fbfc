#include "analysis/depgraph.h"

#include <algorithm>

namespace hicsync::analysis {

ThreadDepGraph ThreadDepGraph::build(
    const hic::Program& program, const std::vector<hic::Dependency>& deps) {
  ThreadDepGraph g;
  for (const auto& t : program.threads) {
    g.thread_ids_.emplace(t.name, static_cast<int>(g.threads_.size()));
    g.threads_.push_back(t.name);
  }
  g.adjacency_.assign(g.threads_.size(), {});
  for (const auto& dep : deps) {
    int from = g.thread_index(dep.producer_thread);
    if (from < 0) continue;
    for (const auto& c : dep.consumers) {
      int to = g.thread_index(c.thread);
      if (to < 0) continue;
      g.edges_.push_back(Edge{from, to, &dep});
      g.adjacency_[static_cast<std::size_t>(from)].push_back(to);
    }
  }
  return g;
}

int ThreadDepGraph::thread_index(const std::string& name) const {
  auto it = thread_ids_.find(name);
  return it == thread_ids_.end() ? -1 : it->second;
}

std::vector<std::vector<int>> ThreadDepGraph::deadlock_cycles() const {
  // Tarjan's SCC, iterative.
  const int n = static_cast<int>(threads_.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next_index = 0;

  struct Frame {
    int node;
    std::size_t child;
  };
  for (int start = 0; start < n; ++start) {
    if (index[static_cast<std::size_t>(start)] != -1) continue;
    std::vector<Frame> frames{{start, 0}};
    index[static_cast<std::size_t>(start)] = low[static_cast<std::size_t>(start)] = next_index++;
    stack.push_back(start);
    on_stack[static_cast<std::size_t>(start)] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      auto u = static_cast<std::size_t>(f.node);
      if (f.child < adjacency_[u].size()) {
        int v = adjacency_[u][f.child++];
        auto vi = static_cast<std::size_t>(v);
        if (index[vi] == -1) {
          index[vi] = low[vi] = next_index++;
          stack.push_back(v);
          on_stack[vi] = 1;
          frames.push_back({v, 0});
        } else if (on_stack[vi]) {
          low[u] = std::min(low[u], index[vi]);
        }
      } else {
        if (low[u] == index[u]) {
          std::vector<int> scc;
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = 0;
            scc.push_back(w);
            if (w == f.node) break;
          }
          // Keep only real cycles: multi-node SCCs or explicit self loops.
          bool self_loop = false;
          if (scc.size() == 1) {
            const auto& adj = adjacency_[static_cast<std::size_t>(scc[0])];
            self_loop =
                std::find(adj.begin(), adj.end(), scc[0]) != adj.end();
          }
          if (scc.size() > 1 || self_loop) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
        int finished = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          auto p = static_cast<std::size_t>(frames.back().node);
          low[p] = std::min(low[p], low[static_cast<std::size_t>(finished)]);
        }
      }
    }
  }
  return sccs;
}

std::vector<int> ThreadDepGraph::topological_order() const {
  const int n = static_cast<int>(threads_.size());
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const auto& adj : adjacency_) {
    for (int v : adj) ++indegree[static_cast<std::size_t>(v)];
  }
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    int u = ready.front();
    ready.erase(ready.begin());
    order.push_back(u);
    for (int v : adjacency_[static_cast<std::size_t>(u)]) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
  }
  if (order.size() != static_cast<std::size_t>(n)) return {};
  return order;
}

std::vector<std::string> ThreadDepGraph::deadlock_reports() const {
  std::vector<std::string> out;
  for (const auto& cycle : deadlock_cycles()) {
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
