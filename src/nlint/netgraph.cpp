#include "nlint/netgraph.h"

#include <algorithm>
#include <utility>

#include "support/graph.h"

namespace hicsync::nlint {
namespace {

void collect_refs(const rtl::RtlExpr& e, std::vector<int>& refs) {
  if (e.op == rtl::RtlOp::Ref) refs.push_back(e.net);
  for (const auto& a : e.args) collect_refs(*a, refs);
}

}  // namespace

NetGraph::NetGraph(const rtl::Module& module) : module_(module) {
  infos_.resize(module.nets().size());
  on_cycle_.assign(module.nets().size(), 0);
  index_drivers();
  find_cycles();
  fold_constants();
}

void NetGraph::index_drivers() {
  for (const rtl::Port& p : module_.ports()) {
    auto& inf = infos_[static_cast<std::size_t>(p.net)];
    if (p.dir == rtl::PortDir::Input) {
      inf.is_input = true;
    } else {
      inf.is_output = true;
    }
  }
  // Continuous assigns keep their references (the comb graph, folding and
  // cone queries walk them); every other site only counts reads.
  const auto& assigns = module_.assigns();
  ref_begin_.reserve(assigns.size() + 1);
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    infos_[static_cast<std::size_t>(assigns[i].target)].cont_drivers.push_back(
        static_cast<int>(i));
    ref_begin_.push_back(refs_.size());
    if (assigns[i].value != nullptr) collect_refs(*assigns[i].value, refs_);
  }
  ref_begin_.push_back(refs_.size());
  for (int r : refs_) ++infos_[static_cast<std::size_t>(r)].reads;
  const auto& seqs = module_.seqs();
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    infos_[static_cast<std::size_t>(seqs[i].target)].seq_drivers.push_back(
        static_cast<int>(i));
    count_reads(seqs[i].value.get());
    count_reads(seqs[i].enable.get());
  }
  for (const rtl::Memory& m : module_.memories()) {
    for (const rtl::MemoryPort& p : m.ports) {
      if (p.read_data >= 0) {
        infos_[static_cast<std::size_t>(p.read_data)].mem_read = true;
      }
      count_reads(p.addr.get());
      count_reads(p.write_enable.get());
      count_reads(p.write_data.get());
    }
  }
}

void NetGraph::count_reads(const rtl::RtlExpr* e) {
  if (e == nullptr) return;
  if (e->op == rtl::RtlOp::Ref) {
    ++infos_[static_cast<std::size_t>(e->net)].reads;
  }
  for (const auto& a : e->args) count_reads(a.get());
}

std::span<const int> NetGraph::comb_refs(int net) const {
  const NetInfo& inf = info(net);
  if (inf.cont_drivers.empty()) return {};
  const auto a = static_cast<std::size_t>(inf.cont_drivers.front());
  return {refs_.data() + ref_begin_[a], refs_.data() + ref_begin_[a + 1]};
}

bool NetGraph::driven(int net) const {
  const NetInfo& inf = info(net);
  return inf.is_input || inf.mem_read || !inf.cont_drivers.empty() ||
         !inf.seq_drivers.empty();
}

const rtl::RtlExpr* NetGraph::comb_driver(int net) const {
  const NetInfo& inf = info(net);
  if (inf.cont_drivers.empty()) return nullptr;
  return module_.assigns()[static_cast<std::size_t>(inf.cont_drivers.front())]
      .value.get();
}

void NetGraph::find_cycles() {
  // Net-level dependency graph restricted to continuously driven nets:
  // edge u -> v when v's driver reads u. Edges are listed in (v ascending,
  // u ascending) order, so out-edges of u come in ascending v.
  const int n = net_count();
  std::vector<std::pair<int, int>> edges;  // (u, v)
  std::vector<int> refs;
  for (int v = 0; v < n; ++v) {
    if (comb_driver(v) == nullptr) continue;
    const std::span<const int> drv_refs = comb_refs(v);
    refs.assign(drv_refs.begin(), drv_refs.end());
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    for (int u : refs) {
      if (comb_driver(u) == nullptr && u != v) continue;
      edges.emplace_back(u, v);
    }
  }
  const auto graph = support::Csr::from_edges(n, edges);
  const support::Scc scc = support::strongly_connected(graph);

  // Order each cyclic SCC along an actual cycle: walk in-SCC edges from its
  // first-popped net until the walk closes.
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < scc.count(); ++c) {
    if (!scc.cyclic(graph, c)) continue;
    for (int v : scc.members(c)) on_cycle_[static_cast<std::size_t>(v)] = 1;
    std::vector<int> ordered;
    int cur = scc.members(c).front();
    while (!visited[static_cast<std::size_t>(cur)]) {
      visited[static_cast<std::size_t>(cur)] = 1;
      ordered.push_back(cur);
      int next = -1;
      for (int w : graph.row(cur)) {
        if (scc.comp[static_cast<std::size_t>(w)] == c) {
          next = w;
          break;
        }
      }
      if (next == -1) break;
      cur = next;
    }
    // Trim any lead-in so the listed path starts where the cycle closes.
    auto closing = std::find(ordered.begin(), ordered.end(), cur);
    if (closing != ordered.end() && closing != ordered.begin()) {
      ordered.erase(ordered.begin(), closing);
    }
    cycles_.push_back(std::move(ordered));
  }
  std::sort(cycles_.begin(), cycles_.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
}

void NetGraph::fold_constants() {
  has_const_.assign(static_cast<std::size_t>(net_count()), 0);
  const_.assign(static_cast<std::size_t>(net_count()), 0);
  // Memoized post-order over comb drivers; nets on cycles never fold.
  // state: 0 = unvisited, 1 = done (has_const_ says whether it folded).
  std::vector<char> state(static_cast<std::size_t>(net_count()), 0);
  std::vector<char> expanding(static_cast<std::size_t>(net_count()), 0);
  struct Item {
    int net;
    bool expand;
  };
  std::vector<Item> work;
  for (int root = 0; root < net_count(); ++root) {
    if (state[static_cast<std::size_t>(root)] != 0) continue;
    work.push_back(Item{root, true});
    while (!work.empty()) {
      Item it = work.back();
      work.pop_back();
      auto un = static_cast<std::size_t>(it.net);
      const rtl::RtlExpr* drv = comb_driver(it.net);
      if (it.expand) {
        if (state[un] != 0 || expanding[un] != 0) continue;
        if (drv == nullptr || on_cycle_[un] ||
            info(it.net).cont_drivers.size() > 1) {
          state[un] = 1;  // terminal or ambiguous: not a constant
          continue;
        }
        expanding[un] = 1;
        work.push_back(Item{it.net, false});
        for (int r : comb_refs(it.net)) {
          if (state[static_cast<std::size_t>(r)] == 0) {
            work.push_back(Item{r, true});
          }
        }
        continue;
      }
      expanding[un] = 0;
      state[un] = 1;
      std::optional<std::uint64_t> value = fold(*drv);
      if (value.has_value()) {
        has_const_[un] = 1;
        const_[un] = mask_width(*value, module_.net(it.net).width);
      }
    }
  }
}

std::optional<std::uint64_t> NetGraph::const_value(int net) const {
  if (has_const_[static_cast<std::size_t>(net)] != 0) {
    return const_[static_cast<std::size_t>(net)];
  }
  return std::nullopt;
}

std::optional<std::uint64_t> NetGraph::fold(const rtl::RtlExpr& e) const {
  using rtl::RtlOp;
  auto fold1 = [&](const rtl::RtlExpr& a) { return fold(a); };
  switch (e.op) {
    case RtlOp::Const:
      return mask_width(e.value, e.width);
    case RtlOp::Ref:
      return const_value(e.net);
    case RtlOp::Slice: {
      auto v = fold1(*e.args[0]);
      if (!v) return std::nullopt;
      return mask_width(*v >> e.lo, e.hi - e.lo + 1);
    }
    case RtlOp::Concat: {
      std::uint64_t v = 0;
      for (const auto& a : e.args) {
        auto p = fold1(*a);
        if (!p) return std::nullopt;
        v = (v << a->width) | mask_width(*p, a->width);
      }
      return mask_width(v, e.width);
    }
    case RtlOp::Not: {
      auto v = fold1(*e.args[0]);
      if (!v) return std::nullopt;
      return mask_width(~*v, e.width);
    }
    case RtlOp::And: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && *a == 0) return 0;
      if (b && *b == 0) return 0;
      if (a && b) return mask_width(*a & *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Or: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a | *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Xor: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a ^ *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Add: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a + *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Sub: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a - *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Eq:
    case RtlOp::Ne:
    case RtlOp::Lt:
    case RtlOp::Le: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (!a || !b) return std::nullopt;
      switch (e.op) {
        case RtlOp::Eq:
          return *a == *b ? 1 : 0;
        case RtlOp::Ne:
          return *a != *b ? 1 : 0;
        case RtlOp::Lt:
          return *a < *b ? 1 : 0;
        default:
          return *a <= *b ? 1 : 0;
      }
    }
    case RtlOp::Shl: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a << *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Shr: {
      auto a = fold1(*e.args[0]);
      auto b = fold1(*e.args[1]);
      if (a && b) return mask_width(*a >> *b, e.width);
      return std::nullopt;
    }
    case RtlOp::Mux: {
      auto s = fold1(*e.args[0]);
      if (s) {
        auto arm = fold1(*s != 0 ? *e.args[1] : *e.args[2]);
        if (arm) return mask_width(*arm, e.width);
        return std::nullopt;
      }
      auto a = fold1(*e.args[1]);
      auto b = fold1(*e.args[2]);
      if (a && b && mask_width(*a, e.width) == mask_width(*b, e.width)) {
        return mask_width(*a, e.width);
      }
      return std::nullopt;
    }
    case RtlOp::ReduceOr: {
      auto v = fold1(*e.args[0]);
      if (!v) return std::nullopt;
      return mask_width(*v, e.args[0]->width) != 0 ? 1 : 0;
    }
    case RtlOp::ReduceAnd: {
      auto v = fold1(*e.args[0]);
      if (!v) return std::nullopt;
      return mask_width(*v, e.args[0]->width) ==
                     mask_width(~0ULL, e.args[0]->width)
                 ? 1
                 : 0;
    }
  }
  return std::nullopt;
}

std::vector<int> NetGraph::cone_support(const std::vector<int>& roots) const {
  std::vector<char> seen(static_cast<std::size_t>(net_count()), 0);
  std::vector<int> support;
  std::vector<int> work = roots;
  while (!work.empty()) {
    int v = work.back();
    work.pop_back();
    auto uv = static_cast<std::size_t>(v);
    if (seen[uv] != 0) continue;
    seen[uv] = 1;
    const rtl::RtlExpr* drv = comb_driver(v);
    if (drv == nullptr) {
      support.push_back(v);
      continue;
    }
    for (int r : comb_refs(v)) work.push_back(r);
  }
  std::sort(support.begin(), support.end());
  return support;
}

}  // namespace hicsync::nlint
