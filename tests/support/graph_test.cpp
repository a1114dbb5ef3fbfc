#include "support/graph.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/rng.h"

namespace hicsync::support {
namespace {

using Edges = std::vector<std::pair<int, int>>;

/// A seeded random digraph on n vertices: about `density` * n * n edges,
/// duplicates and self-loops included, some vertices left isolated.
Edges random_edges(Rng& rng, int n, double density) {
  Edges edges;
  if (n == 0) return edges;
  const auto count = static_cast<int>(density * n * n);
  for (int i = 0; i < count; ++i) {
    edges.emplace_back(static_cast<int>(rng.next_below(n)),
                       static_cast<int>(rng.next_below(n)));
  }
  return edges;
}

/// reach[u][v]: a path of one or more edges leads from u to v (closure by
/// Floyd-Warshall).
std::vector<std::vector<char>> closure(int n, const Edges& edges) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<char>> reach(un, std::vector<char>(un, 0));
  for (const auto& [u, v] : edges) {
    reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = 1;
  }
  for (std::size_t k = 0; k < un; ++k) {
    for (std::size_t i = 0; i < un; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < un; ++j) {
        if (reach[k][j]) reach[i][j] = 1;
      }
    }
  }
  return reach;
}

TEST(Csr, FromEdgesListsEachRowInEdgeListOrder) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng.next_below(12));
    const Edges edges = random_edges(rng, n, 0.4);
    const Csr g = Csr::from_edges(n, edges);
    ASSERT_EQ(g.size(), n);
    ASSERT_EQ(g.targets.size(), edges.size());
    for (int u = 0; u < n; ++u) {
      std::vector<int> want;
      for (const auto& [from, to] : edges) {
        if (from == u) want.push_back(to);
      }
      const std::span<const int> row = g.row(u);
      EXPECT_EQ(std::vector<int>(row.begin(), row.end()), want)
          << "trial " << trial << " row " << u;
    }
  }
}

TEST(Csr, EmptyAndIsolatedVertices) {
  const Csr none = Csr::from_edges(0, {});
  EXPECT_EQ(none.size(), 0);
  EXPECT_EQ(none.offsets, std::vector<int>{0});
  const Edges one_edge{{2, 0}};
  const Csr g = Csr::from_edges(4, one_edge);
  EXPECT_EQ(g.offsets, (std::vector<int>{0, 0, 0, 1, 1}));
  EXPECT_TRUE(g.row(3).empty());
}

TEST(Scc, PartitionIsMutualReachability) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.next_below(25));
    const double density = 0.02 + 0.2 * rng.next_double();
    const Edges edges = random_edges(rng, n, density);
    const Csr g = Csr::from_edges(n, edges);
    const Scc scc = strongly_connected(g);
    const auto reach = closure(n, edges);

    ASSERT_EQ(scc.comp.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(scc.order.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(scc.begin.back(), n);
    std::vector<int> seen(static_cast<std::size_t>(n), 0);
    for (int c = 0; c < scc.count(); ++c) {
      ASSERT_LT(scc.begin[static_cast<std::size_t>(c)],
                scc.begin[static_cast<std::size_t>(c) + 1]);
      for (int v : scc.members(c)) {
        EXPECT_EQ(scc.comp[static_cast<std::size_t>(v)], c);
        ++seen[static_cast<std::size_t>(v)];
      }
    }
    EXPECT_EQ(seen, std::vector<int>(static_cast<std::size_t>(n), 1));

    for (int u = 0; u < n; ++u) {
      const auto uu = static_cast<std::size_t>(u);
      for (int v = 0; v < n; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        const bool mutual = u == v || (reach[uu][uv] && reach[uv][uu]);
        EXPECT_EQ(scc.comp[uu] == scc.comp[uv], mutual)
            << "trial " << trial << ": " << u << ", " << v;
      }
    }
    for (int c = 0; c < scc.count(); ++c) {
      const int v = scc.members(c).front();
      const auto uv = static_cast<std::size_t>(v);
      EXPECT_EQ(scc.cyclic(g, c), reach[uv][uv] != 0)
          << "trial " << trial << " component " << c;
    }
  }
}

TEST(Scc, CrossComponentEdgesPointToEarlierComponents) {
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.next_below(25));
    const Edges edges = random_edges(rng, n, 0.02 + 0.2 * rng.next_double());
    const Scc scc = strongly_connected(Csr::from_edges(n, edges));
    for (const auto& [u, v] : edges) {
      const int cu = scc.comp[static_cast<std::size_t>(u)];
      const int cv = scc.comp[static_cast<std::size_t>(v)];
      if (cu != cv) {
        EXPECT_LT(cv, cu) << "trial " << trial;
      }
    }
  }
}

TEST(Scc, SingleVertices) {
  EXPECT_EQ(strongly_connected(Csr::from_edges(0, {})).count(), 0);

  const Csr lone = Csr::from_edges(1, {});
  const Scc a = strongly_connected(lone);
  ASSERT_EQ(a.count(), 1);
  EXPECT_FALSE(a.cyclic(lone, 0));

  const Edges self{{0, 0}};
  const Csr looped = Csr::from_edges(1, self);
  const Scc b = strongly_connected(looped);
  ASSERT_EQ(b.count(), 1);
  EXPECT_TRUE(b.cyclic(looped, 0));
}

TEST(Scc, EmissionAndPopOrderFollowRootAndRowOrder) {
  // 0 -> 1 -> 2 -> 0 and 2 -> 3 <-> 4; 5 isolated. The DFS from 0 finishes
  // {3, 4} first (popped 4 then 3), then {0, 1, 2} (popped 2, 1, 0); the
  // isolated 5 comes last.
  const Edges chain{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}};
  const Scc a = strongly_connected(Csr::from_edges(6, chain));
  EXPECT_EQ(a.order, (std::vector<int>{4, 3, 2, 1, 0, 5}));
  EXPECT_EQ(a.begin, (std::vector<int>{0, 2, 5, 6}));

  // Row order decides the pop order inside a component: 0 tries 1 before
  // 2, so 2 is pushed last and popped first.
  const Edges fan{{0, 1}, {0, 2}, {1, 0}, {2, 0}};
  EXPECT_EQ(strongly_connected(Csr::from_edges(3, fan)).order,
            (std::vector<int>{2, 1, 0}));
}

}  // namespace
}  // namespace hicsync::support
