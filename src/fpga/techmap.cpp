#include "fpga/techmap.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>

#include "memalloc/bram.h"
#include "rtl/eval.h"
#include "support/strings.h"

namespace hicsync::fpga {
namespace {

enum class NodeKind : std::uint8_t { Const, PI, Gate, Carry };

/// A reduce-tree group has at most 4 inputs; mux and carry nodes have 3.
constexpr int kMaxFanins = 4;

struct Node {
  NodeKind kind = NodeKind::Gate;
  std::uint8_t fanin_count = 0;
  std::array<int, kMaxFanins> fanins{};
  int fanout = 0;
};

/// Distinct node ids in insertion order, at most N of them.
template <int N>
struct IdSet {
  std::array<int, N> ids{};
  int size = 0;

  void add(int id) {
    if (std::find(ids.begin(), ids.begin() + size, id) ==
        ids.begin() + size) {
      ids[static_cast<std::size_t>(size++)] = id;
    }
  }
};

/// Per-node covering state. A LUT4 cone has at most 4 leaves.
struct Cover {
  IdSet<4> leaves;
  int level = 0;
  int chain = 0;  // carry bits crossed on the deepest path into the node
  bool absorbed = false;
};

/// Bit-blasting context for one module.
class Blaster {
 public:
  explicit Blaster(const rtl::Module& m)
      : m_(m), net_begin_(m.nets().size(), -1) {
    const0_ = add_node(NodeKind::Const, {});
    const1_ = add_node(NodeKind::Const, {});
  }

  void run() {
    for (int i : rtl::topological_order(m_)) {
      const rtl::ContAssign& a = m_.assigns()[static_cast<std::size_t>(i)];
      bits_.clear();
      blast_to(*a.value, m_.net(a.target).width);
      net_begin_[static_cast<std::size_t>(a.target)] =
          static_cast<int>(pool_.size());
      pool_.insert(pool_.end(), bits_.begin(), bits_.end());
    }
    // Roots: register D inputs and enables, memory port expressions.
    for (const rtl::SeqAssign& s : m_.seqs()) {
      add_root(s.value.get());
      add_root(s.enable.get());
    }
    for (const rtl::Memory& mem : m_.memories()) {
      for (const rtl::MemoryPort& p : mem.ports) {
        add_root(p.addr.get());
        add_root(p.write_enable.get());
        add_root(p.write_data.get());
      }
    }
    // Output port cones are roots too.
    for (const rtl::Port& p : m_.ports()) {
      if (p.dir != rtl::PortDir::Output) continue;
      bits_.clear();
      append_net(p.net);
      add_fanouts();
    }
  }

  /// Greedy LUT4 covering + level computation.
  MapResult cover(const Virtex2ProDevice& device) const {
    MapResult r;
    std::vector<Cover> cov(nodes_.size());

    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.kind == NodeKind::Const || n.kind == NodeKind::PI) continue;
      Cover& c = cov[id];
      if (n.kind == NodeKind::Carry) {
        for (int k = 0; k < n.fanin_count; ++k) {
          const auto fi = static_cast<std::size_t>(n.fanins[k]);
          if (nodes_[fi].kind == NodeKind::Carry) {
            // Along the chain: no extra LUT level, carry bit accumulates.
            c.level = std::max(c.level, cov[fi].level);
            c.chain = std::max(c.chain, cov[fi].chain + 1);
          } else {
            c.level = std::max(c.level, cov[fi].level + 1);
            c.chain = std::max(c.chain, 1);
          }
        }
        continue;
      }
      // Gate: grow a cone by absorbing fanout-1 gate leaves while the
      // merged leaf set still fits one LUT4.
      IdSet<4>& cone = c.leaves;
      for (int k = 0; k < n.fanin_count; ++k) cone.add(n.fanins[k]);
      bool grew = true;
      while (grew) {
        grew = false;
        for (int li = 0; li < cone.size; ++li) {
          const auto ci = static_cast<std::size_t>(cone.ids[li]);
          if (nodes_[ci].kind != NodeKind::Gate) continue;
          if (nodes_[ci].fanout != 1) continue;
          // Tentative merge: the other leaves, then the candidate's.
          IdSet<7> merged;
          for (int k = 0; k < cone.size; ++k) {
            if (k != li) merged.ids[merged.size++] = cone.ids[k];
          }
          const IdSet<4>& inner = cov[ci].leaves;
          for (int k = 0; k < inner.size; ++k) merged.add(inner.ids[k]);
          if (merged.size <= 4) {
            std::copy_n(merged.ids.begin(), merged.size, cone.ids.begin());
            cone.size = merged.size;
            cov[ci].absorbed = true;
            grew = true;
            break;
          }
        }
      }
      for (int k = 0; k < cone.size; ++k) {
        const Cover& leaf = cov[static_cast<std::size_t>(cone.ids[k])];
        c.level = std::max(c.level, leaf.level + 1);
        c.chain = std::max(c.chain, leaf.chain);
      }
    }

    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.kind == NodeKind::Carry) {
        ++r.luts;
        ++r.carry_luts;
      } else if (n.kind == NodeKind::Gate && !cov[id].absorbed) {
        ++r.luts;
      }
      r.logic_levels = std::max(r.logic_levels, cov[id].level);
      r.max_carry_bits = std::max(r.max_carry_bits, cov[id].chain);
    }

    r.ffs = m_.flipflop_bits();
    int lut_slices = (r.luts + device.luts_per_slice - 1) /
                     device.luts_per_slice;
    int ff_slices = (r.ffs + device.ffs_per_slice - 1) /
                    device.ffs_per_slice;
    r.slices = std::max(lut_slices, ff_slices);
    for (const rtl::Memory& mem : m_.memories()) {
      r.bram_blocks += memalloc::BramModel::primitives_for(
          mem.width, static_cast<std::int64_t>(mem.depth));
    }
    return r;
  }

 private:
  int add_node(NodeKind kind, const int* fanins, int count) {
    Node n;
    n.kind = kind;
    n.fanin_count = static_cast<std::uint8_t>(count);
    for (int k = 0; k < count; ++k) {
      ++nodes_[static_cast<std::size_t>(fanins[k])].fanout;
      n.fanins[static_cast<std::size_t>(k)] = fanins[k];
    }
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
  }

  int add_node(NodeKind kind, std::initializer_list<int> fanins) {
    return add_node(kind, fanins.begin(), static_cast<int>(fanins.size()));
  }

  int gate(std::initializer_list<int> fanins) {
    return add_node(NodeKind::Gate, fanins);
  }

  /// A carry-chain bit; `prev` is the previous bit, or -1 for the first.
  int carry(int a, int b, int prev) {
    return prev < 0 ? add_node(NodeKind::Carry, {a, b})
                    : add_node(NodeKind::Carry, {a, b, prev});
  }

  bool is_const(int bit) const { return bit == const0_ || bit == const1_; }

  /// Bit `i` of an operand of `width` bits at `begin`, zero-extended.
  int operand_bit(std::size_t begin, int width, int i) const {
    return i < width ? bits_[begin + static_cast<std::size_t>(i)] : const0_;
  }

  void add_fanouts() {
    for (int b : bits_) ++nodes_[static_cast<std::size_t>(b)].fanout;
  }

  void add_root(const rtl::RtlExpr* e) {
    if (e == nullptr) return;
    bits_.clear();
    blast(*e);
    add_fanouts();
  }

  /// Appends the bits of `net`. A net no continuous assign drives is a
  /// primary input, a register output or a memory read register: it gets
  /// fresh PI nodes on first use.
  void append_net(int net) {
    const auto n = static_cast<std::size_t>(net);
    const int width = m_.net(net).width;
    if (net_begin_[n] < 0) {
      net_begin_[n] = static_cast<int>(pool_.size());
      for (int i = 0; i < width; ++i) {
        pool_.push_back(add_node(NodeKind::PI, {}));
      }
    }
    const auto first = pool_.begin() + net_begin_[n];
    bits_.insert(bits_.end(), first, first + width);
  }

  /// blast(e), zero-extended or truncated to `width` bits.
  void blast_to(const rtl::RtlExpr& e, int width) {
    const std::size_t begin = bits_.size();
    blast(e);
    bits_.resize(begin + static_cast<std::size_t>(width), const0_);
  }

  /// Appends the bits of `e` (LSB first) to bits_ and returns their count.
  /// Operands are blasted above the result's position and folded down in
  /// place, so one buffer serves the whole expression tree.
  int blast(const rtl::RtlExpr& e) {
    using rtl::RtlOp;
    const std::size_t p = bits_.size();
    const auto at = [p](int i) { return p + static_cast<std::size_t>(i); };
    const int w = e.width;
    switch (e.op) {
      case RtlOp::Const:
        for (int i = 0; i < w; ++i) {
          bits_.push_back(((e.value >> i) & 1) != 0 ? const1_ : const0_);
        }
        break;
      case RtlOp::Ref:
        append_net(e.net);
        break;
      case RtlOp::Slice: {
        const int base = blast(*e.args[0]);
        const int out = std::max(e.hi - e.lo + 1, 0);
        bits_.resize(at(std::max(base, out)), const0_);
        // Bit k comes from base bit lo + k >= k: reads stay ahead of writes.
        for (int k = 0; k < out; ++k) {
          bits_[at(k)] = operand_bit(p, base, e.lo + k);
        }
        bits_.resize(at(out));
        break;
      }
      case RtlOp::Concat:
        // args[0] holds the MSBs.
        for (auto it = e.args.rbegin(); it != e.args.rend(); ++it) {
          blast(**it);
        }
        break;
      case RtlOp::Not:
        blast_to(*e.args[0], w);
        for (int i = 0; i < w; ++i) {
          int& b = bits_[at(i)];
          b = b == const0_ ? const1_ : b == const1_ ? const0_ : gate({b});
        }
        break;
      case RtlOp::And:
      case RtlOp::Or:
      case RtlOp::Xor: {
        blast_to(*e.args[0], w);
        blast_to(*e.args[1], w);
        for (int i = 0; i < w; ++i) {
          bits_[at(i)] = bitwise(e.op, bits_[at(i)], bits_[at(w + i)]);
        }
        bits_.resize(at(w));
        break;
      }
      case RtlOp::Add:
      case RtlOp::Sub: {
        blast_to(*e.args[0], w);
        blast_to(*e.args[1], w);
        // Carry chain: one Carry node per bit, chained.
        int prev = -1;
        for (int i = 0; i < w; ++i) {
          prev = carry(bits_[at(i)], bits_[at(w + i)], prev);
          bits_[at(i)] = prev;
        }
        bits_.resize(at(w));
        break;
      }
      case RtlOp::Lt:
      case RtlOp::Le: {
        const int wa = blast(*e.args[0]);
        const int wb = blast(*e.args[1]);
        int prev = -1;
        for (int i = 0; i < std::max(wa, wb); ++i) {
          prev = carry(operand_bit(p, wa, i), operand_bit(at(wa), wb, i),
                       prev);
        }
        bits_.resize(p);
        bits_.push_back(prev < 0 ? const0_ : prev);
        break;
      }
      case RtlOp::Eq:
      case RtlOp::Ne: {
        const int wa = blast(*e.args[0]);
        const int wb = blast(*e.args[1]);
        const int n = std::max(wa, wb);
        // Per-bit equalities over the operands' positions: bit i reads a[i]
        // and b[i] before it writes position i, which no later bit reads.
        for (int i = 0; i < n; ++i) {
          bits_[at(i)] =
              bit_equal(operand_bit(p, wa, i), operand_bit(at(wa), wb, i));
        }
        // AND-reduce the per-bit equalities (constant-true bits drop out).
        // A constant-false bit decides the result; the gates made for the
        // other bits stay in the DAG and are counted.
        int live = 0;
        int result = -1;
        for (int i = 0; i < n && result < 0; ++i) {
          const int x = bits_[at(i)];
          if (x == const0_) result = const0_;
          if (x != const0_ && x != const1_) bits_[at(live++)] = x;
        }
        if (result < 0) result = reduce_tree(p, live, const1_);
        if (e.op == RtlOp::Ne) {
          result = result == const0_   ? const1_
                   : result == const1_ ? const0_
                                       : gate({result});
        }
        bits_.resize(p);
        bits_.push_back(result);
        break;
      }
      case RtlOp::Shl:
      case RtlOp::Shr: {
        if (e.args[1]->op != RtlOp::Const) {
          throw std::runtime_error(
              "techmap: only constant shift amounts are supported");
        }
        blast_to(*e.args[0], w);
        const int sh = static_cast<int>(e.args[1]->value);
        // Result bit i is operand bit i + offset. Walk away from the
        // source side so every read precedes the write that clobbers it.
        const std::int64_t offset = e.op == RtlOp::Shl
                                        ? -static_cast<std::int64_t>(sh)
                                        : static_cast<std::int64_t>(sh);
        const auto shift_bit = [&](int i) {
          const std::int64_t src = i + offset;
          bits_[at(i)] = src >= 0 && src < w
                             ? bits_[at(static_cast<int>(src))]
                             : const0_;
        };
        if (offset >= 0) {
          for (int i = 0; i < w; ++i) shift_bit(i);
        } else {
          for (int i = w - 1; i >= 0; --i) shift_bit(i);
        }
        break;
      }
      case RtlOp::Mux: {
        const int ws = blast(*e.args[0]);
        const std::size_t t = at(ws);
        blast_to(*e.args[1], w);
        blast_to(*e.args[2], w);
        const int s = ws == 0 ? const0_ : bits_[p];
        // Result bit i lands at or below the arms' bit i, already read.
        for (int i = 0; i < w; ++i) {
          const auto ii = static_cast<std::size_t>(i);
          bits_[at(i)] = mux_bit(s, bits_[t + ii],
                                 bits_[t + static_cast<std::size_t>(w) + ii]);
        }
        bits_.resize(at(w));
        break;
      }
      case RtlOp::ReduceOr:
      case RtlOp::ReduceAnd: {
        const int n = blast(*e.args[0]);
        const bool is_or = e.op == RtlOp::ReduceOr;
        const int identity = is_or ? const0_ : const1_;
        const int absorbing = is_or ? const1_ : const0_;
        int live = 0;
        int result = -1;
        for (int i = 0; i < n && result < 0; ++i) {
          const int x = bits_[at(i)];
          if (x == absorbing) result = absorbing;
          if (x != identity && x != absorbing) bits_[at(live++)] = x;
        }
        if (result < 0) result = reduce_tree(p, live, identity);
        bits_.resize(p);
        bits_.push_back(result);
        break;
      }
      default:
        throw std::runtime_error("techmap: unhandled expression op");
    }
    return static_cast<int>(bits_.size() - p);
  }

  /// One bit of an And/Or/Xor; constant folding keeps controller
  /// constants free.
  int bitwise(rtl::RtlOp op, int a, int b) {
    if (op == rtl::RtlOp::And) {
      if (a == const0_ || b == const0_) return const0_;
      if (a == const1_) return b;
      if (b == const1_) return a;
    } else if (op == rtl::RtlOp::Or) {
      if (a == const1_ || b == const1_) return const1_;
      if (a == const0_) return b;
      if (b == const0_) return a;
    }
    return gate({a, b});
  }

  /// One bit of sel ? t : f.
  int mux_bit(int sel, int t, int f) {
    if (sel == const1_ || t == f) return t;
    if (sel == const0_) return f;
    if (t == const1_ && f == const0_) return sel;
    return gate({sel, t, f});
  }

  /// a[i] == b[i] as a node: constant, pass-through, an inverter (absorbed
  /// into the reduce tree by the coverer) or an XNOR.
  int bit_equal(int a, int b) {
    if (is_const(a) && is_const(b)) return a == b ? const1_ : const0_;
    if (a == b) return const1_;
    if (is_const(b)) return b == const1_ ? a : gate({a});
    if (is_const(a)) return a == const1_ ? b : gate({b});
    return gate({a, b});
  }

  /// Balanced reduction tree over the `n` 1-bit nodes at bits_[p...];
  /// identity when empty. Each level folds up to 4 inputs into one LUT and
  /// writes its outputs over the front of the range.
  int reduce_tree(std::size_t p, int n, int identity) {
    if (n == 0) return identity;
    while (n > 1) {
      int next = 0;
      for (int i = 0; i < n; i += kMaxFanins) {
        const int group = std::min(kMaxFanins, n - i);
        const std::size_t g = p + static_cast<std::size_t>(i);
        bits_[p + static_cast<std::size_t>(next++)] =
            group == 1 ? bits_[g]
                       : add_node(NodeKind::Gate, &bits_[g], group);
      }
      n = next;
    }
    return bits_[p];
  }

  const rtl::Module& m_;
  std::vector<Node> nodes_;
  std::vector<int> bits_;       // blast buffer
  std::vector<int> pool_;       // every net's bits, LSB first
  std::vector<int> net_begin_;  // net id -> offset in pool_, -1 = none yet
  int const0_ = -1;
  int const1_ = -1;
};

}  // namespace

std::string MapResult::str() const {
  return support::format(
      "LUT %d (carry %d)  FF %d  slices %d  BRAM %d  depth %d levels "
      "(+%d carry bits)",
      luts, carry_luts, ffs, slices, bram_blocks, logic_levels,
      max_carry_bits);
}

MapResult TechMapper::map(const rtl::Module& module) const {
  Blaster blaster(module);
  blaster.run();
  return blaster.cover(device_);
}

}  // namespace hicsync::fpga
