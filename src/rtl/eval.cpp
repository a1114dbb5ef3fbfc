#include "rtl/eval.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace hicsync::rtl {
namespace {

/// kWidthMasks[w] keeps the low w bits.
constexpr std::array<std::uint64_t, 65> kWidthMasks = [] {
  std::array<std::uint64_t, 65> masks{};
  for (int w = 0; w < 64; ++w) masks[w] = (1ULL << w) - 1;
  masks[64] = ~0ULL;
  return masks;
}();

/// An instruction's result width: its mask is kWidthMasks[bits].
std::uint8_t mask_bits(int width) {
  return static_cast<std::uint8_t>(std::clamp(width, 0, 64));
}

std::uint64_t width_mask(int width) { return kWidthMasks[mask_bits(width)]; }

void collect_refs(const RtlExpr& e, std::vector<int>& refs) {
  if (e.op == RtlOp::Ref) refs.push_back(e.net);
  for (const auto& a : e.args) collect_refs(*a, refs);
}

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Collects every constant slot `e` reads (literals, and the operand masks
/// of its concatenation parts and and-reductions) and returns how many
/// instructions lower_expr() emits for it: none for a leaf.
std::size_t scan_expr(const RtlExpr& e,
                      std::vector<std::uint64_t>& constants) {
  std::size_t instrs = 1;
  switch (e.op) {
    case RtlOp::Const:
      constants.push_back(e.value);
      return 0;
    case RtlOp::Ref:
      return 0;
    case RtlOp::ReduceAnd:
      constants.push_back(width_mask(e.args[0]->width));
      break;
    case RtlOp::Concat:
      // One Mov of the first part, then one instruction per later part.
      if (e.args.empty()) constants.push_back(0);
      for (const auto& a : e.args) constants.push_back(width_mask(a->width));
      instrs = std::max<std::size_t>(e.args.size(), 1);
      break;
    default:
      break;
  }
  for (const auto& a : e.args) instrs += scan_expr(*a, constants);
  return instrs;
}

/// scan_expr() of an optional lower_root() operand, which lowers a leaf to
/// one Mov.
std::size_t scan_root(const RtlExpr* e,
                      std::vector<std::uint64_t>& constants) {
  if (e == nullptr) return 0;
  return std::max<std::size_t>(scan_expr(*e, constants), 1);
}

/// Strict-mode scan: every net read anywhere must have some driver.
void check_undriven_reads(const Module& module) {
  std::vector<bool> driven(module.nets().size(), false);
  for (const Port& p : module.ports()) {
    if (p.dir == PortDir::Input) driven[static_cast<std::size_t>(p.net)] = true;
  }
  for (const ContAssign& a : module.assigns()) {
    driven[static_cast<std::size_t>(a.target)] = true;
  }
  for (const SeqAssign& s : module.seqs()) {
    driven[static_cast<std::size_t>(s.target)] = true;
  }
  for (const Memory& m : module.memories()) {
    for (const MemoryPort& p : m.ports) {
      if (p.read_data >= 0) driven[static_cast<std::size_t>(p.read_data)] = true;
    }
  }
  std::vector<int> refs;
  auto check = [&](const RtlExpr* e, const std::string& site) {
    if (e == nullptr) return;
    refs.clear();
    collect_refs(*e, refs);
    sort_unique(refs);
    for (int r : refs) {
      if (!driven[static_cast<std::size_t>(r)]) {
        throw std::runtime_error("ModuleSim: read of undriven net '" +
                                 module.net(r).name + "' in " + site + " (" +
                                 module.name() + ", strict mode)");
      }
    }
  };
  for (const ContAssign& a : module.assigns()) {
    check(a.value.get(), "continuous assign to '" + module.net(a.target).name +
                             "'");
  }
  for (const SeqAssign& s : module.seqs()) {
    check(s.value.get(), "next-state of '" + module.net(s.target).name + "'");
    check(s.enable.get(), "enable of '" + module.net(s.target).name + "'");
  }
  for (const Memory& m : module.memories()) {
    for (std::size_t i = 0; i < m.ports.size(); ++i) {
      const MemoryPort& p = m.ports[i];
      const std::string where =
          "memory '" + m.name + "' port " + std::to_string(i);
      check(p.addr.get(), "address of " + where);
      check(p.write_enable.get(), "write enable of " + where);
      check(p.write_data.get(), "write data of " + where);
    }
  }
}

/// Continuous assigns in evaluation order: each after the assigns driving
/// the nets it reads. Throws on a combinational cycle.
std::vector<int> topological_order(const Module& module) {
  const auto& assigns = module.assigns();
  const std::size_t n = assigns.size();
  std::vector<int> driver_of(module.nets().size(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    driver_of[static_cast<std::size_t>(assigns[i].target)] =
        static_cast<int>(i);
  }
  // Edges driver -> reader, grouped by driver in ascending reader order
  // (compressed rows: dependents of d are edges[first[d], first[d + 1])).
  std::vector<int> indegree(n, 0);
  std::vector<int> first(n + 1, 0);
  std::vector<std::pair<int, int>> edges;
  std::vector<int> refs;
  for (std::size_t i = 0; i < n; ++i) {
    refs.clear();
    collect_refs(*assigns[i].value, refs);
    sort_unique(refs);
    for (int r : refs) {
      const int d = driver_of[static_cast<std::size_t>(r)];
      if (d < 0) continue;
      edges.emplace_back(d, static_cast<int>(i));
      ++first[static_cast<std::size_t>(d) + 1];
      ++indegree[i];
    }
  }
  for (std::size_t d = 0; d < n; ++d) first[d + 1] += first[d];
  std::vector<int> dependents(edges.size());
  std::vector<int> fill(first.begin(), first.end() - 1);
  for (const auto& [d, i] : edges) {
    dependents[static_cast<std::size_t>(fill[static_cast<std::size_t>(d)]++)] =
        i;
  }

  std::vector<int> order;
  order.reserve(n);
  std::vector<int> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  while (!ready.empty()) {
    const int i = ready.back();
    ready.pop_back();
    order.push_back(i);
    const auto row = static_cast<std::size_t>(i);
    for (int e = first[row]; e < first[row + 1]; ++e) {
      const int d = dependents[static_cast<std::size_t>(e)];
      if (--indegree[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  if (order.size() != n) {
    throw std::runtime_error("ModuleSim: combinational cycle in " +
                             module.name());
  }
  return order;
}

}  // namespace

ModuleSim::ModuleSim(const Module& module) : ModuleSim(module, SimOptions{}) {}

ModuleSim::ModuleSim(const Module& module, const SimOptions& options) {
  if (options.strict_undriven) check_undriven_reads(module);
  if (!module.instances().empty()) {
    throw std::runtime_error("ModuleSim: instances are not supported (" +
                             module.name() + ")");
  }
  for (const Net& n : module.nets()) names_[n.name] = n.id;
  lower(module);
  settle();
}

void ModuleSim::lower(const Module& module) {
  const auto net_count = static_cast<std::uint32_t>(module.nets().size());
  net_masks_.resize(net_count);
  for (const Net& n : module.nets()) {
    net_masks_[static_cast<std::size_t>(n.id)] = width_mask(n.width);
  }

  // Constants and tape sizes.
  std::size_t comb_instrs = 0;
  std::size_t edge_instrs = 0;
  std::uint32_t edge_results = 0;  // dedicated edge-tape temporaries
  for (const ContAssign& a : module.assigns()) {
    comb_instrs += scan_root(a.value.get(), constants_);
  }
  for (const SeqAssign& s : module.seqs()) {
    edge_instrs += scan_root(s.value.get(), constants_);
    edge_instrs += scan_root(s.enable.get(), constants_);
    edge_results += s.enable != nullptr ? 2 : 1;
  }
  for (const Memory& m : module.memories()) {
    for (const MemoryPort& p : m.ports) {
      if (p.write_enable != nullptr && p.write_data == nullptr) {
        throw std::runtime_error("ModuleSim: memory '" + m.name + "' in " +
                                 module.name() +
                                 " has a write enable but no write data");
      }
      edge_instrs += scan_root(p.addr.get(), constants_);
      edge_instrs += scan_root(p.write_enable.get(), constants_);
      edge_instrs += scan_root(p.write_data.get(), constants_);
      edge_results += p.write_enable != nullptr ? 3 : 1;
    }
  }
  std::sort(constants_.begin(), constants_.end());
  constants_.erase(std::unique(constants_.begin(), constants_.end()),
                   constants_.end());
  temps_begin_ = net_count + static_cast<std::uint32_t>(constants_.size());
  slot_count_ = temps_begin_;

  // Combinational tape, in topological order; scratch from temps_begin_.
  comb_.reserve(comb_instrs);
  for (int i : topological_order(module)) {
    const ContAssign& a = module.assigns()[static_cast<std::size_t>(i)];
    const auto target = static_cast<std::uint32_t>(a.target);
    lower_root(*a.value, target, module.net(a.target).width, temps_begin_,
               comb_);
  }

  // Edge tape: one dedicated temporary per commit operand, scratch above.
  // The combinational tape's scratch may overlap them; it never runs
  // between the edge tape and the commit.
  edge_.reserve(edge_instrs);
  std::uint32_t next = temps_begin_;
  const std::uint32_t scratch = temps_begin_ + edge_results;
  slot_count_ = std::max(slot_count_, scratch);
  for (const SeqAssign& s : module.seqs()) {
    SeqCommit c;
    c.target = static_cast<std::uint32_t>(s.target);
    c.has_reset = s.has_reset;
    c.reset_value = s.reset_value;
    c.value = next++;
    lower_root(*s.value, c.value, module.net(s.target).width, scratch, edge_);
    c.enable = kNoSlot;
    if (s.enable != nullptr) {
      c.enable = next++;
      lower_root(*s.enable, c.enable, 64, scratch, edge_);
    }
    seq_commits_.push_back(c);
  }
  for (const Memory& m : module.memories()) {
    const auto index = static_cast<std::uint32_t>(memories_.size());
    memories_.push_back(MemoryState{
        m.name, width_mask(m.width),
        std::vector<std::uint64_t>(static_cast<std::size_t>(m.depth), 0)});
    for (const MemoryPort& p : m.ports) {
      PortCommit c;
      c.memory = index;
      c.addr = next++;
      lower_root(*p.addr, c.addr, 64, scratch, edge_);
      c.read_data = p.read_data >= 0 ? static_cast<std::uint32_t>(p.read_data)
                                     : kNoSlot;
      c.write_enable = kNoSlot;
      if (p.write_enable != nullptr) {
        c.write_enable = next++;
        lower_root(*p.write_enable, c.write_enable, 64, scratch, edge_);
        c.write_data = next++;
        lower_root(*p.write_data, c.write_data, m.width, scratch, edge_);
      }
      port_commits_.push_back(c);
    }
  }

  slots_.assign(slot_count_, 0);
  std::copy(constants_.begin(), constants_.end(),
            slots_.begin() + net_count);
  if (auto it = names_.find("rst"); it != names_.end()) {
    rst_ = static_cast<std::uint32_t>(it->second);
  }
}

std::uint32_t ModuleSim::constant_slot(std::uint64_t value) const {
  auto it = std::lower_bound(constants_.begin(), constants_.end(), value);
  return static_cast<std::uint32_t>(net_masks_.size()) +
         static_cast<std::uint32_t>(it - constants_.begin());
}

std::uint32_t ModuleSim::lower_expr(const RtlExpr& e, std::uint32_t top,
                                    std::vector<Instr>& tape) {
  switch (e.op) {
    case RtlOp::Const:
      return constant_slot(e.value);
    case RtlOp::Ref:
      return static_cast<std::uint32_t>(e.net);
    case RtlOp::Concat: {
      // Accumulate in `top`, most significant part first. Masking the
      // running value to the result width at every part is the same as
      // masking once at the end: a left shift only moves bits upward.
      const std::uint8_t bits = mask_bits(e.width);
      slot_count_ = std::max(slot_count_, top + 1);
      if (e.args.empty()) {
        tape.push_back(Instr{Op::Mov, 0, bits, top, constant_slot(0), 0, 0});
        return top;
      }
      const RtlExpr& head = *e.args.front();
      const std::uint32_t h = lower_expr(head, top, tape);
      tape.push_back(Instr{Op::Mov, 0, std::min(bits, mask_bits(head.width)),
                           top, h, 0, 0});
      for (std::size_t i = 1; i < e.args.size(); ++i) {
        const RtlExpr& part = *e.args[i];
        const std::uint32_t s = lower_expr(part, top + 1, tape);
        if (part.width >= 64) {  // everything accumulated shifts out
          tape.push_back(Instr{Op::Mov, 0, bits, top, s, 0, 0});
        } else {
          tape.push_back(Instr{Op::ShlOr, mask_bits(part.width), bits, top,
                               top, s,
                               constant_slot(width_mask(part.width))});
        }
      }
      return top;
    }
    default:
      break;
  }

  Instr in;
  in.dst = top;
  in.bits = mask_bits(e.width);
  switch (e.op) {
    case RtlOp::Slice:
      in.op = Op::Slice;
      in.shift = static_cast<std::uint8_t>(e.lo);
      in.bits = mask_bits(e.hi - e.lo + 1);
      break;
    case RtlOp::Not: in.op = Op::Not; break;
    case RtlOp::And: in.op = Op::And; break;
    case RtlOp::Or: in.op = Op::Or; break;
    case RtlOp::Xor: in.op = Op::Xor; break;
    case RtlOp::Add: in.op = Op::Add; break;
    case RtlOp::Sub: in.op = Op::Sub; break;
    case RtlOp::Shl: in.op = Op::Shl; break;
    case RtlOp::Shr: in.op = Op::Shr; break;
    case RtlOp::Mux: in.op = Op::Mux; break;
    case RtlOp::Eq: in.op = Op::Eq; in.bits = 64; break;
    case RtlOp::Ne: in.op = Op::Ne; in.bits = 64; break;
    case RtlOp::Lt: in.op = Op::Lt; in.bits = 64; break;
    case RtlOp::Le: in.op = Op::Le; in.bits = 64; break;
    case RtlOp::ReduceOr: in.op = Op::ReduceOr; in.bits = 64; break;
    case RtlOp::ReduceAnd:
      in.op = Op::ReduceAnd;
      in.bits = 64;
      break;
    case RtlOp::Const:
    case RtlOp::Ref:
    case RtlOp::Concat:
      break;
  }
  // Operand i is computed in slot top + i (and scratch above it), so no
  // operand overwrites an earlier one before this instruction reads it.
  std::uint32_t* operands[] = {&in.a, &in.b, &in.c};
  for (std::size_t i = 0; i < e.args.size() && i < 3; ++i) {
    *operands[i] =
        lower_expr(*e.args[i], top + static_cast<std::uint32_t>(i), tape);
  }
  if (e.op == RtlOp::ReduceAnd) {
    in.b = constant_slot(width_mask(e.args[0]->width));
  }
  slot_count_ = std::max(slot_count_, top + 1);
  tape.push_back(in);
  return top;
}

void ModuleSim::lower_root(const RtlExpr& e, std::uint32_t dst,
                           int width, std::uint32_t top,
                           std::vector<Instr>& tape) {
  const std::uint32_t s = lower_expr(e, top, tape);
  if (e.op == RtlOp::Const || e.op == RtlOp::Ref) {
    tape.push_back(Instr{Op::Mov, 0, mask_bits(width), dst, s, 0, 0});
  } else {
    // The last instruction produced the whole value: retarget it.
    tape.back().dst = dst;
    tape.back().bits = std::min(tape.back().bits, mask_bits(width));
  }
}

void ModuleSim::run(const std::vector<Instr>& tape) {
  std::uint64_t* s = slots_.data();
  for (const Instr& in : tape) {
    const std::uint64_t a = s[in.a];
    std::uint64_t r = 0;
    switch (in.op) {
      case Op::Mov: r = a; break;
      case Op::Slice: r = a >> in.shift; break;
      case Op::ShlOr: r = (a << in.shift) | (s[in.b] & s[in.c]); break;
      case Op::Not: r = ~a; break;
      case Op::And: r = a & s[in.b]; break;
      case Op::Or: r = a | s[in.b]; break;
      case Op::Xor: r = a ^ s[in.b]; break;
      case Op::Add: r = a + s[in.b]; break;
      case Op::Sub: r = a - s[in.b]; break;
      case Op::Eq: r = a == s[in.b] ? 1 : 0; break;
      case Op::Ne: r = a != s[in.b] ? 1 : 0; break;
      case Op::Lt: r = a < s[in.b] ? 1 : 0; break;
      case Op::Le: r = a <= s[in.b] ? 1 : 0; break;
      case Op::Shl: r = a << s[in.b]; break;
      case Op::Shr: r = a >> s[in.b]; break;
      case Op::Mux: r = a != 0 ? s[in.b] : s[in.c]; break;
      case Op::ReduceOr: r = a != 0 ? 1 : 0; break;
      case Op::ReduceAnd: r = (a & s[in.b]) == s[in.b] ? 1 : 0; break;
    }
    s[in.dst] = r & kWidthMasks[in.bits];
  }
}

int ModuleSim::find_net(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) {
    throw std::runtime_error("ModuleSim: no net named '" + name + "'");
  }
  return it->second;
}

void ModuleSim::settle() {
  run(comb_);
  dirty_ = false;
}

void ModuleSim::clock_edge() {
  run(edge_);
  const bool in_reset = rst_ != kNoSlot && slots_[rst_] != 0;
  for (const SeqCommit& c : seq_commits_) {
    if (in_reset && c.has_reset) {
      slots_[c.target] = c.reset_value;
    } else if (c.enable == kNoSlot || slots_[c.enable] != 0) {
      slots_[c.target] = slots_[c.value];
    }
  }
  // Read-first: every port reads the pre-edge contents before any write.
  for (const PortCommit& p : port_commits_) {
    const MemoryState& mem = memories_[p.memory];
    const std::uint64_t addr = slots_[p.addr] % mem.words.size();
    slots_[p.addr] = addr;
    if (p.read_data != kNoSlot) {
      slots_[p.read_data] = mem.words[addr] & mem.mask;
    }
  }
  if (in_reset) return;
  for (const PortCommit& p : port_commits_) {
    if (p.write_enable != kNoSlot && slots_[p.write_enable] != 0) {
      memories_[p.memory].words[slots_[p.addr]] = slots_[p.write_data];
    }
  }
}

void ModuleSim::step() {
  if (dirty_) settle();
  clock_edge();
  ++cycles_;
  settle();
}

void ModuleSim::reset() {
  if (rst_ == kNoSlot) return;
  set_input(static_cast<int>(rst_), 1);
  step();
  set_input(static_cast<int>(rst_), 0);
  settle();
}

void ModuleSim::clear_state() {
  std::fill(slots_.begin(), slots_.begin() + net_masks_.size(), 0);
  std::fill(slots_.begin() + temps_begin_, slots_.end(), 0);
  for (MemoryState& m : memories_) std::fill(m.words.begin(), m.words.end(), 0);
  cycles_ = 0;
  settle();
}

std::size_t ModuleSim::memory_index(const std::string& name) const {
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    if (memories_[i].name == name) return i;
  }
  throw std::runtime_error("ModuleSim: no memory named '" + name + "'");
}

std::uint64_t ModuleSim::read_mem(const std::string& mem,
                                  std::size_t addr) const {
  return memories_[memory_index(mem)].words.at(addr);
}

void ModuleSim::write_mem(const std::string& mem, std::size_t addr,
                          std::uint64_t value) {
  memories_[memory_index(mem)].words.at(addr) = value;
  dirty_ = true;
}

}  // namespace hicsync::rtl
