#include "support/graph.h"

#include <algorithm>

namespace hicsync::support {

Csr Csr::from_edges(int n, std::span<const std::pair<int, int>> edges) {
  Csr g;
  g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) ++g.offsets[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
    g.offsets[u + 1] += g.offsets[u];
  }
  g.targets.resize(edges.size());
  std::vector<int> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    g.targets[static_cast<std::size_t>(fill[static_cast<std::size_t>(u)]++)] =
        v;
  }
  return g;
}

bool Scc::cyclic(const Csr& g, int c) const {
  const std::span<const int> m = members(c);
  if (m.size() > 1) return true;
  const std::span<const int> succs = g.row(m.front());
  return std::find(succs.begin(), succs.end(), m.front()) != succs.end();
}

Scc strongly_connected(const Csr& g) {
  const auto n = static_cast<std::size_t>(g.size());
  Scc r;
  r.comp.assign(n, -1);
  r.order.reserve(n);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  // Tarjan's stack holds exactly the visited vertices that have no
  // component yet.
  std::vector<int> stack;
  stack.reserve(n);
  auto on_stack = [&](std::size_t w) { return r.comp[w] < 0; };
  struct Frame {
    int v;
    int next;  // position in g.targets of the next successor to try
  };
  std::vector<Frame> dfs;
  dfs.reserve(n);
  int counter = 0;
  auto visit = [&](int v) {
    const auto u = static_cast<std::size_t>(v);
    index[u] = low[u] = counter++;
    stack.push_back(v);
    dfs.push_back({v, g.offsets[u]});
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    visit(static_cast<int>(root));
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto v = static_cast<std::size_t>(f.v);
      if (f.next < g.offsets[v + 1]) {
        const int w = g.targets[static_cast<std::size_t>(f.next++)];
        const auto wu = static_cast<std::size_t>(w);
        if (index[wu] < 0) {
          visit(w);
        } else if (on_stack(wu)) {
          low[v] = std::min(low[v], index[wu]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const auto p = static_cast<std::size_t>(dfs.back().v);
        low[p] = std::min(low[p], low[v]);
      }
      if (low[v] != index[v]) continue;
      const int c = r.count();
      int w = -1;
      do {
        w = stack.back();
        stack.pop_back();
        r.comp[static_cast<std::size_t>(w)] = c;
        r.order.push_back(w);
      } while (w != static_cast<int>(v));
      r.begin.push_back(static_cast<int>(r.order.size()));
    }
  }
  return r;
}

}  // namespace hicsync::support
