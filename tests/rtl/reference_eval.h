// Reference semantics of the netlist, written directly against RtlOp and
// independent of ModuleSim's lowering: an expression interpreter, and a
// whole-module model that settles each driven net on demand through the
// expression of its (last) driver and clocks registers and a read-first
// BRAM (later port wins on one address, no writes under reset, address
// modulo depth). The evaluator tests compare ModuleSim against it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::rtl::ref {

inline std::uint64_t mask_w(std::uint64_t v, int w) {
  return w >= 64 ? v : (v & ((1ULL << w) - 1));
}

/// Value of `e` given the values of the nets it reads: `values.at(net)`.
template <class Values>
std::uint64_t reference(const RtlExpr& e, const Values& values) {
  switch (e.op) {
    case RtlOp::Const: return e.value;
    case RtlOp::Ref: return values.at(e.net);
    case RtlOp::Slice:
      return mask_w(reference(*e.args[0], values) >> e.lo,
                    e.hi - e.lo + 1);
    case RtlOp::Concat: {
      std::uint64_t v = 0;
      for (const auto& a : e.args) {
        v = (v << a->width) | mask_w(reference(*a, values), a->width);
      }
      return mask_w(v, e.width);
    }
    case RtlOp::Not:
      return mask_w(~reference(*e.args[0], values), e.width);
    case RtlOp::And:
      return mask_w(reference(*e.args[0], values) &
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Or:
      return mask_w(reference(*e.args[0], values) |
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Xor:
      return mask_w(reference(*e.args[0], values) ^
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Add:
      return mask_w(reference(*e.args[0], values) +
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Sub:
      return mask_w(reference(*e.args[0], values) -
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::Eq:
      return reference(*e.args[0], values) == reference(*e.args[1], values);
    case RtlOp::Ne:
      return reference(*e.args[0], values) != reference(*e.args[1], values);
    case RtlOp::Lt:
      return reference(*e.args[0], values) < reference(*e.args[1], values);
    case RtlOp::Le:
      return reference(*e.args[0], values) <= reference(*e.args[1], values);
    case RtlOp::Shl:
      return mask_w(reference(*e.args[0], values)
                        << reference(*e.args[1], values),
                    e.width);
    case RtlOp::Shr:
      return mask_w(reference(*e.args[0], values) >>
                        reference(*e.args[1], values),
                    e.width);
    case RtlOp::ReduceOr:
      return reference(*e.args[0], values) != 0;
    case RtlOp::ReduceAnd: {
      const int w = e.args[0]->width;
      return mask_w(reference(*e.args[0], values), w) == mask_w(~0ULL, w);
    }
    case RtlOp::Mux:
      return mask_w(reference(*e.args[0], values) != 0
                        ? reference(*e.args[1], values)
                        : reference(*e.args[2], values),
                    e.width);
  }
  return 0;
}

/// The whole module: net values and memory words. Inputs are set(),
/// settle() evaluates every driven net, edge() is one clock edge. A net
/// nothing drives and nobody sets reads as 0.
class ModuleModel {
 public:
  explicit ModuleModel(const Module& m)
      : m_(m),
        values_(m.nets().size(), 0),
        driver_(m.nets().size(), -1),
        settled_(m.nets().size(), false) {
    for (std::size_t i = 0; i < m.assigns().size(); ++i) {
      driver_[static_cast<std::size_t>(m.assigns()[i].target)] =
          static_cast<int>(i);
    }
    for (const Net& n : m.nets()) {
      if (n.name == "rst") rst_ = n.id;
    }
    for (const Memory& mem : m.memories()) {
      words_.emplace_back(static_cast<std::size_t>(mem.depth), 0);
    }
  }

  void set(int net, std::uint64_t value) {
    values_[static_cast<std::size_t>(net)] =
        mask_w(value, m_.net(net).width);
  }
  [[nodiscard]] std::uint64_t get(int net) const {
    return values_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::uint64_t word(std::size_t memory,
                                   std::size_t addr) const {
    return words_[memory][addr];
  }

  void settle() {
    std::fill(settled_.begin(), settled_.end(), false);
    for (const Net& n : m_.nets()) (void)settled(n.id);
  }

  /// Settles, then registers take their next states and every port reads
  /// the pre-edge word before any port writes; a port's read lands after
  /// the registers. Other nets keep their pre-edge values.
  void edge() {
    settle();
    const Lookup now{this};
    const bool in_reset = rst_ >= 0 && get(rst_) != 0;
    std::vector<std::uint64_t> next;
    for (const SeqAssign& s : m_.seqs()) {
      if (in_reset && s.has_reset) {
        next.push_back(s.reset_value);
      } else if (s.enable != nullptr && reference(*s.enable, now) == 0) {
        next.push_back(get(s.target));
      } else {
        next.push_back(
            mask_w(reference(*s.value, now), m_.net(s.target).width));
      }
    }
    struct Access {
      std::size_t memory, addr;
      int read_data;
      bool write;
      std::uint64_t data;
    };
    std::vector<Access> accesses;
    for (std::size_t k = 0; k < m_.memories().size(); ++k) {
      const Memory& mem = m_.memories()[k];
      for (const MemoryPort& p : mem.ports) {
        Access a{k,
                 static_cast<std::size_t>(
                     reference(*p.addr, now) %
                     static_cast<std::uint64_t>(mem.depth)),
                 p.read_data, false, 0};
        if (p.write_enable != nullptr) {
          a.write = reference(*p.write_enable, now) != 0;
          a.data = mask_w(reference(*p.write_data, now), mem.width);
        }
        accesses.push_back(a);
      }
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      values_[static_cast<std::size_t>(m_.seqs()[i].target)] = next[i];
    }
    for (const Access& a : accesses) {
      if (a.read_data >= 0) {
        values_[static_cast<std::size_t>(a.read_data)] =
            mask_w(words_[a.memory][a.addr], m_.memories()[a.memory].width);
      }
    }
    if (in_reset) return;
    for (const Access& a : accesses) {
      if (a.write) words_[a.memory][a.addr] = a.data;
    }
  }

 private:
  /// Net values as reference() reads them; settle() evaluates on demand.
  struct Lookup {
    ModuleModel* model;
    [[nodiscard]] std::uint64_t at(int net) const {
      return model->settled(net);
    }
  };

  std::uint64_t settled(int net) {
    const auto i = static_cast<std::size_t>(net);
    if (driver_[i] < 0 || settled_[i]) return values_[i];
    settled_[i] = true;
    const ContAssign& a = m_.assigns()[static_cast<std::size_t>(driver_[i])];
    values_[i] =
        mask_w(reference(*a.value, Lookup{this}), m_.net(net).width);
    return values_[i];
  }

  const Module& m_;
  std::vector<std::uint64_t> values_;
  std::vector<int> driver_;
  std::vector<bool> settled_;
  std::vector<std::vector<std::uint64_t>> words_;
  int rst_ = -1;
};

}  // namespace hicsync::rtl::ref
