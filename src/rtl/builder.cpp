#include "rtl/builder.h"

#include "support/bits.h"

namespace hicsync::rtl {

RtlExprPtr build_mux_tree(Module& m, int sel_net,
                          std::vector<RtlExprPtr> inputs) {
  const int n = static_cast<int>(inputs.size());
  const int sel_width = m.net(sel_net).width;
  if (n == 1) return std::move(inputs[0]);

  // Recursive pairing on select bits, LSB first.
  std::vector<RtlExprPtr> level = std::move(inputs);
  int bit = 0;
  while (level.size() > 1 && bit < sel_width) {
    std::vector<RtlExprPtr> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      RtlExprPtr sel_bit =
          eslice(eref(sel_net, sel_width), bit, bit);
      next.push_back(emux(std::move(sel_bit), std::move(level[i + 1]),
                          std::move(level[i])));
    }
    if (level.size() % 2 == 1) {
      next.push_back(std::move(level.back()));
    }
    level = std::move(next);
    ++bit;
  }
  return std::move(level[0]);
}

std::vector<int> build_decoder(Module& m, int sel_net, int n,
                               const std::string& prefix) {
  const int w = m.net(sel_net).width;
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    int wire = m.add_wire(prefix + "_dec" + std::to_string(i), 1);
    m.assign(wire, ebin(RtlOp::Eq, eref(sel_net, w),
                        econst(static_cast<std::uint64_t>(i), w)));
    out.push_back(wire);
  }
  m.claim_onehot(out, "decoder '" + prefix + "'");
  return out;
}

namespace {

/// Balanced prefix-OR (recursive doubling): out[i] = bits[0] | ... | bits[i].
/// Each level is materialized into wires so the LUT coverer sees the
/// logarithmic structure.
std::vector<int> build_prefix_or(Module& m, const std::vector<int>& bits,
                                 const std::string& prefix) {
  std::vector<int> cur = bits;
  int level = 0;
  for (std::size_t step = 1; step < bits.size(); step *= 2) {
    std::vector<int> next(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (i < step) {
        next[i] = cur[i];
        continue;
      }
      int w = m.add_wire(prefix + "_pfx" + std::to_string(level) + "_" +
                             std::to_string(i),
                         1);
      m.assign(w, ebin(RtlOp::Or, eref(cur[i], 1), eref(cur[i - step], 1)));
      next[i] = w;
    }
    cur = std::move(next);
    ++level;
  }
  return cur;
}

}  // namespace

ArbiterNets build_round_robin_arbiter(Module& m,
                                      const std::vector<int>& requests,
                                      const std::string& prefix,
                                      int pointer_width) {
  ArbiterNets nets;
  const int n = static_cast<int>(requests.size());
  int pw = support::clog2_at_least1(static_cast<std::uint64_t>(n));
  if (pointer_width > pw) pw = pointer_width;

  nets.pointer = m.add_reg(prefix + "_ptr", pw);

  // Rotating priority via the standard two-sided scheme:
  //   mask[i]   = (i >= ptr)            — thermometer decode of the pointer
  //   hi[i]     = req[i] & mask[i]      — requesters at/after the pointer
  //   grant     = first set bit of hi, or of req when hi is empty.
  // First-set-bit uses a balanced prefix OR, so depth grows with log N,
  // not N.
  std::vector<int> hi(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int mask = m.add_wire(prefix + "_mask" + std::to_string(i), 1);
    m.assign(mask, ebin(RtlOp::Le, eref(nets.pointer, pw),
                        econst(static_cast<std::uint64_t>(i), pw)));
    int w = m.add_wire(prefix + "_hi" + std::to_string(i), 1);
    m.assign(w, ebin(RtlOp::And, eref(requests[static_cast<std::size_t>(i)], 1),
                     eref(mask, 1)));
    hi[static_cast<std::size_t>(i)] = w;
  }
  std::vector<int> hi_cum = build_prefix_or(m, hi, prefix + "_hi");
  std::vector<int> lo_cum = build_prefix_or(m, requests, prefix + "_lo");
  int any_hi = m.add_wire(prefix + "_any_hi", 1);
  m.assign(any_hi, eref(hi_cum.back(), 1));

  for (int i = 0; i < n; ++i) {
    auto ui = static_cast<std::size_t>(i);
    // First set bit: x[i] & !cum[i-1].
    RtlExprPtr first_hi = eref(hi[ui], 1);
    if (i > 0) {
      first_hi = ebin(RtlOp::And, std::move(first_hi),
                      enot(eref(hi_cum[ui - 1], 1)));
    }
    RtlExprPtr first_lo = eref(requests[ui], 1);
    if (i > 0) {
      first_lo = ebin(RtlOp::And, std::move(first_lo),
                      enot(eref(lo_cum[ui - 1], 1)));
    }
    int g = m.add_wire(prefix + "_grant" + std::to_string(i), 1);
    m.assign(g, emux(eref(any_hi, 1), std::move(first_hi),
                     std::move(first_lo)));
    nets.grant.push_back(g);
  }

  nets.any_grant = m.add_wire(prefix + "_any_grant", 1);
  m.assign(nets.any_grant, eref(lo_cum.back(), 1));

  // next_ptr = granted index + 1 (mod n), held when no grant.
  std::vector<RtlExprPtr> succ;
  for (int i = 0; i < n; ++i) {
    succ.push_back(econst(static_cast<std::uint64_t>((i + 1) % n), pw));
  }
  RtlExprPtr next = emux(eref(nets.any_grant, 1),
                         build_onehot_mux(m, nets.grant, std::move(succ), pw),
                         eref(nets.pointer, pw));
  m.seq(nets.pointer, std::move(next), /*enable=*/nullptr, /*reset=*/0);
  m.claim_onehot(nets.grant, "round-robin arbiter '" + prefix + "'");
  return nets;
}

std::vector<int> build_fixed_priority(Module& m,
                                      const std::vector<int>& requests,
                                      const std::string& prefix) {
  std::vector<int> grants;
  RtlExprPtr none_above;  // !r0 & !r1 & ... for the ones processed so far
  for (std::size_t i = 0; i < requests.size(); ++i) {
    int g = m.add_wire(prefix + "_grant" + std::to_string(i), 1);
    RtlExprPtr term = eref(requests[i], 1);
    if (none_above != nullptr) {
      term = ebin(RtlOp::And, none_above->clone(), std::move(term));
    }
    m.assign(g, std::move(term));
    grants.push_back(g);
    RtlExprPtr not_this = enot(eref(requests[i], 1));
    none_above = none_above == nullptr
                     ? std::move(not_this)
                     : ebin(RtlOp::And, std::move(none_above),
                            std::move(not_this));
  }
  m.claim_onehot(grants, "fixed-priority grant '" + prefix + "'");
  return grants;
}

RtlExprPtr eor_tree(std::vector<RtlExprPtr> terms, int width) {
  std::vector<RtlExprPtr> level;
  for (auto& t : terms) {
    if (t != nullptr) level.push_back(std::move(t));
  }
  if (level.empty()) return econst(0, width);
  while (level.size() > 1) {
    std::vector<RtlExprPtr> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(
          ebin(RtlOp::Or, std::move(level[i]), std::move(level[i + 1])));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level[0]);
}

RtlExprPtr build_onehot_mux(Module& m, const std::vector<int>& selects,
                            std::vector<RtlExprPtr> values, int width) {
  m.claim_onehot(selects, "one-hot mux");
  std::vector<RtlExprPtr> masked;
  for (std::size_t i = 0; i < selects.size() && i < values.size(); ++i) {
    // mask = select ? ~0 : 0, then AND with the value: two-input bit gates
    // that the LUT coverer merges into the OR tree.
    RtlExprPtr mask = emux(eref(selects[i], 1),
                           econst(~0ULL, width), econst(0, width));
    masked.push_back(ebin(RtlOp::And, std::move(values[i]),
                          std::move(mask)));
  }
  return eor_tree(std::move(masked), width);
}

}  // namespace hicsync::rtl
