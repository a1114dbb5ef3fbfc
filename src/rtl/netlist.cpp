#include "rtl/netlist.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace hicsync::rtl {

RtlExprPtr RtlExpr::clone() const {
  auto e = std::make_unique<RtlExpr>();
  e->op = op;
  e->width = width;
  e->value = value;
  e->net = net;
  e->lo = lo;
  e->hi = hi;
  for (const auto& a : args) e->args.push_back(a->clone());
  return e;
}

RtlExprPtr econst(std::uint64_t value, int width) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Const;
  e->width = width;
  e->value = width >= 64 ? value : (value & ((1ULL << width) - 1));
  return e;
}

RtlExprPtr eref(int net, int width) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Ref;
  e->net = net;
  e->width = width;
  return e;
}

RtlExprPtr eslice(RtlExprPtr v, int hi, int lo) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Slice;
  e->width = hi - lo + 1;
  e->hi = hi;
  e->lo = lo;
  e->args.push_back(std::move(v));
  return e;
}

RtlExprPtr econcat(std::vector<RtlExprPtr> parts) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Concat;
  e->width = 0;
  for (const auto& p : parts) e->width += p->width;
  e->args = std::move(parts);
  return e;
}

RtlExprPtr enot(RtlExprPtr v) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Not;
  e->width = v->width;
  e->args.push_back(std::move(v));
  return e;
}

RtlExprPtr ebin(RtlOp op, RtlExprPtr a, RtlExprPtr b) {
  auto e = std::make_unique<RtlExpr>();
  e->op = op;
  switch (op) {
    case RtlOp::Eq:
    case RtlOp::Ne:
    case RtlOp::Lt:
    case RtlOp::Le:
      e->width = 1;
      break;
    default:
      e->width = std::max(a->width, b->width);
  }
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

RtlExprPtr emux(RtlExprPtr sel, RtlExprPtr when_true, RtlExprPtr when_false) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::Mux;
  e->width = std::max(when_true->width, when_false->width);
  e->args.push_back(std::move(sel));
  e->args.push_back(std::move(when_true));
  e->args.push_back(std::move(when_false));
  return e;
}

RtlExprPtr ereduce_or(RtlExprPtr v) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::ReduceOr;
  e->width = 1;
  e->args.push_back(std::move(v));
  return e;
}

RtlExprPtr ereduce_and(RtlExprPtr v) {
  auto e = std::make_unique<RtlExpr>();
  e->op = RtlOp::ReduceAnd;
  e->width = 1;
  e->args.push_back(std::move(v));
  return e;
}

// ---------------------------------------------------------------------------

namespace {

std::size_t name_hash(const std::string& name) {
  return std::hash<std::string>{}(name);
}

}  // namespace

bool Module::name_taken(const std::string& name) const {
  if (name_index_.empty()) return false;
  const std::size_t mask = name_index_.size() - 1;
  for (std::size_t i = name_hash(name) & mask; name_index_[i] != 0;
       i = (i + 1) & mask) {
    if (nets_[name_index_[i] - 1].name == name) return true;
  }
  return false;
}

void Module::index_net(std::size_t id) {
  const std::size_t mask = name_index_.size() - 1;
  std::size_t i = name_hash(nets_[id].name) & mask;
  while (name_index_[i] != 0) i = (i + 1) & mask;
  name_index_[i] = static_cast<std::uint32_t>(id + 1);
}

std::string Module::unique_name(const std::string& base) {
  if (!name_taken(base)) return base;
  // Every `base_k` below next_suffix_[base] is taken (names are never
  // removed), so the first free one is found where the last search ended.
  int& suffix = next_suffix_.try_emplace(base, 1).first->second;
  while (true) {
    std::string candidate = base + "_" + std::to_string(suffix++);
    if (!name_taken(candidate)) return candidate;
  }
}

int Module::add_net(const std::string& name, int width, NetKind kind) {
  Net n;
  n.id = static_cast<int>(nets_.size());
  n.name = unique_name(name);
  n.width = width;
  n.kind = kind;
  nets_.push_back(std::move(n));
  // Keep the index at most half full: double it and re-add every net.
  if (2 * nets_.size() > name_index_.size()) {
    name_index_.assign(std::max<std::size_t>(64, 2 * name_index_.size()), 0);
    for (std::size_t id = 0; id < nets_.size(); ++id) index_net(id);
  } else {
    index_net(nets_.size() - 1);
  }
  return nets_.back().id;
}

int Module::add_wire(const std::string& name, int width) {
  return add_net(name, width, NetKind::Wire);
}

int Module::add_reg(const std::string& name, int width) {
  return add_net(name, width, NetKind::Reg);
}

int Module::add_input(const std::string& name, int width) {
  int id = add_net(name, width, NetKind::Wire);
  ports_.push_back(Port{nets_[static_cast<std::size_t>(id)].name,
                        PortDir::Input, id});
  return id;
}

int Module::add_output(const std::string& name, int width) {
  int id = add_net(name, width, NetKind::Wire);
  ports_.push_back(Port{nets_[static_cast<std::size_t>(id)].name,
                        PortDir::Output, id});
  return id;
}

int Module::add_output_reg(const std::string& name, int width) {
  int id = add_net(name, width, NetKind::Reg);
  ports_.push_back(Port{nets_[static_cast<std::size_t>(id)].name,
                        PortDir::Output, id});
  return id;
}

void Module::assign(int target, RtlExprPtr value) {
  assigns_.push_back(ContAssign{target, std::move(value)});
}

void Module::seq(int target, RtlExprPtr value, RtlExprPtr enable,
                 std::uint64_t reset_value, bool has_reset) {
  SeqAssign s;
  s.target = target;
  s.value = std::move(value);
  s.enable = std::move(enable);
  s.reset_value = reset_value;
  s.has_reset = has_reset;
  seqs_.push_back(std::move(s));
}

Memory& Module::add_memory(const std::string& name, int width, int depth) {
  Memory m;
  m.name = name;
  m.width = width;
  m.depth = depth;
  memories_.push_back(std::move(m));
  return memories_.back();
}

void Module::claim_onehot(std::vector<int> nets, std::string origin) {
  if (nets.size() < 2) return;
  std::vector<int> sorted = nets;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() < 2) return;
  for (const OneHotClaim& c : onehot_claims_) {
    std::vector<int> existing = c.nets;
    std::sort(existing.begin(), existing.end());
    if (existing == sorted) return;
  }
  onehot_claims_.push_back(OneHotClaim{std::move(nets), std::move(origin)});
}

int Module::clk() {
  if (clk_ < 0) clk_ = add_input("clk", 1);
  return clk_;
}

int Module::rst() {
  if (rst_ < 0) rst_ = add_input("rst", 1);
  return rst_;
}

int Module::flipflop_bits() const {
  // One FF per bit of every sequentially-assigned net (dedup on target).
  std::vector<bool> counted(nets_.size(), false);
  int bits = 0;
  for (const SeqAssign& s : seqs_) {
    const auto t = static_cast<std::size_t>(s.target);
    if (counted[t]) continue;
    counted[t] = true;
    bits += nets_[t].width;
  }
  return bits;
}

bool Module::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = name_ + ": " + msg;
    return false;
  };

  std::map<int, int> drivers;
  for (const ContAssign& a : assigns_) {
    if (a.target < 0 || a.target >= static_cast<int>(nets_.size())) {
      return fail("continuous assign to invalid net");
    }
    ++drivers[a.target];
    if (a.value == nullptr) return fail("continuous assign without value");
    if (a.value->width != net(a.target).width) {
      return fail("width mismatch assigning " + net(a.target).name + ": " +
                  std::to_string(a.value->width) + " -> " +
                  std::to_string(net(a.target).width));
    }
  }
  std::set<int> seq_targets;
  for (const SeqAssign& s : seqs_) {
    if (s.target < 0 || s.target >= static_cast<int>(nets_.size())) {
      return fail("sequential assign to invalid net");
    }
    if (net(s.target).kind != NetKind::Reg) {
      return fail("sequential assign to wire " + net(s.target).name);
    }
    if (s.value == nullptr) return fail("sequential assign without value");
    if (s.value->width != net(s.target).width) {
      return fail("width mismatch in seq assign to " + net(s.target).name);
    }
    if (s.enable != nullptr && s.enable->width != 1) {
      return fail("enable must be 1 bit for " + net(s.target).name);
    }
    seq_targets.insert(s.target);
  }
  for (const auto& [target, count] : drivers) {
    if (count > 1) {
      return fail("multiple continuous drivers of " + net(target).name);
    }
    if (seq_targets.count(target) != 0) {
      return fail("net " + net(target).name +
                  " driven both continuously and sequentially");
    }
    if (net(target).kind == NetKind::Reg) {
      return fail("continuous assign to reg " + net(target).name);
    }
  }
  for (const Memory& m : memories_) {
    if (m.width <= 0 || m.depth <= 0) return fail("degenerate memory");
    for (const MemoryPort& p : m.ports) {
      if (p.addr == nullptr) return fail("memory port without address");
      if (p.write_enable != nullptr && p.write_data == nullptr) {
        return fail("write port without data");
      }
      if (p.read_data >= 0 &&
          net(p.read_data).kind != NetKind::Reg) {
        return fail("memory read data must target a reg");
      }
    }
  }
  return true;
}

Module& Design::add_module(std::string name) {
  modules_.push_back(std::make_unique<Module>(std::move(name)));
  return *modules_.back();
}

}  // namespace hicsync::rtl
