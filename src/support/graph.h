// Directed graphs in compressed-row form and their strongly connected
// components: the one graph representation and the one SCC routine behind
// the deadlock check (analysis), the blocking-bound cycle marks (bound),
// the checker's blocked-path condensation (verify), the combinational-loop
// check (nlint) and the netlist evaluation order (rtl).
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace hicsync::support {

/// Adjacency in compressed rows: the successors of vertex v are
/// targets[offsets[v], offsets[v + 1]). Callers that produce rows in
/// vertex order append to `targets` and push each row's end onto
/// `offsets`; the others use from_edges.
struct Csr {
  std::vector<int> offsets{0};
  std::vector<int> targets;

  /// Rows of `n` vertices from (from, to) pairs, each row listing its
  /// targets in edge-list order (a stable counting sort).
  [[nodiscard]] static Csr from_edges(
      int n, std::span<const std::pair<int, int>> edges);

  [[nodiscard]] int size() const {
    return static_cast<int>(offsets.size()) - 1;
  }
  [[nodiscard]] std::span<const int> row(int v) const {
    const auto u = static_cast<std::size_t>(v);
    return {targets.data() + offsets[u], targets.data() + offsets[u + 1]};
  }
};

/// Strongly connected components of a Csr graph.
struct Scc {
  /// Component id per vertex. Ids follow Tarjan's emission order, which is
  /// reverse topological: an edge u -> v between components has
  /// comp[v] < comp[u].
  std::vector<int> comp;
  /// Every vertex in the order it left Tarjan's stack; component c is the
  /// run order[begin[c], begin[c + 1]).
  std::vector<int> order;
  std::vector<int> begin{0};

  [[nodiscard]] int count() const {
    return static_cast<int>(begin.size()) - 1;
  }
  [[nodiscard]] std::span<const int> members(int c) const {
    const auto i = static_cast<std::size_t>(c);
    return {order.data() + begin[i], order.data() + begin[i + 1]};
  }
  /// Component c holds a cycle of `g`: it has more than one member, or its
  /// one member has a self-loop.
  [[nodiscard]] bool cyclic(const Csr& g, int c) const;
};

/// Tarjan's algorithm (SIAM J. Comput. 1972) with an explicit DFS stack.
/// Roots are taken in ascending vertex order and successors in row order,
/// so a vertex with an empty row that nothing points at (how callers
/// exclude vertices) changes neither the traversal of the others nor their
/// members' pop order.
[[nodiscard]] Scc strongly_connected(const Csr& g);

}  // namespace hicsync::support
