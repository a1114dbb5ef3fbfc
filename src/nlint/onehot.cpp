#include "nlint/onehot.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

namespace hicsync::nlint {

const char* to_string(OneHotStatus s) {
  switch (s) {
    case OneHotStatus::Proved:
      return "proved";
    case OneHotStatus::Violation:
      return "violation";
    case OneHotStatus::Inconclusive:
      return "inconclusive";
  }
  return "?";
}

namespace {

using rtl::RtlExpr;
using rtl::RtlOp;

// ---------------------------------------------------------------------------
// Fact store: exact net values derived during one member's propagation,
// epoch-stamped so resets are O(1).
// ---------------------------------------------------------------------------

class FactStore {
 public:
  explicit FactStore(int nets)
      : value_(static_cast<std::size_t>(nets), 0),
        epoch_(static_cast<std::size_t>(nets), 0) {}

  void reset() {
    if (++cur_ == 0) {  // epoch wrapped: forget every stamp
      std::fill(epoch_.begin(), epoch_.end(), 0);
      cur_ = 1;
    }
    trail_.clear();
  }

  enum class Record { New, Known, Contradiction };

  Record record(int net, std::uint64_t v) {
    auto un = static_cast<std::size_t>(net);
    if (epoch_[un] == cur_) {
      return value_[un] == v ? Record::Known : Record::Contradiction;
    }
    epoch_[un] = cur_;
    value_[un] = v;
    trail_.push_back(net);
    return Record::New;
  }

  [[nodiscard]] bool known(int net) const {
    return epoch_[static_cast<std::size_t>(net)] == cur_;
  }
  [[nodiscard]] std::uint64_t value(int net) const {
    return value_[static_cast<std::size_t>(net)];
  }
  /// Nets given a value since the last reset, in derivation order.
  [[nodiscard]] const std::vector<int>& trail() const { return trail_; }

 private:
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> epoch_;
  std::uint32_t cur_ = 1;
  std::vector<int> trail_;
};

// ---------------------------------------------------------------------------
// Backward implication propagation.
// ---------------------------------------------------------------------------

class Propagator {
 public:
  Propagator(const NetGraph& g, FactStore& store) : g_(g), store_(store) {}

  /// Distinct 1-bit mux-select nets whose unknown value stalled
  /// propagation; candidates for global case splitting.
  std::vector<int> split_candidates;
  std::uint64_t facts = 0;

  [[nodiscard]] bool assume_net(int net, std::uint64_t v) {
    v = NetGraph::mask_width(v, g_.module().net(net).width);
    switch (store_.record(net, v)) {
      case FactStore::Record::Known:
        return true;
      case FactStore::Record::Contradiction:
        return false;
      case FactStore::Record::New:
        break;
    }
    ++facts;
    const RtlExpr* drv = g_.comb_driver(net);
    if (drv == nullptr) return true;  // free variable (input/reg/mem read)
    return require(*drv, v);
  }

  /// Requires expression e to evaluate to v (masked to e.width); derives
  /// the implied net facts. Returns false on contradiction.
  [[nodiscard]] bool require(const RtlExpr& e, std::uint64_t v) {
    v = NetGraph::mask_width(v, e.width);
    switch (e.op) {
      case RtlOp::Const:
        return NetGraph::mask_width(e.value, e.width) == v;
      case RtlOp::Ref:
        return assume_net(e.net, v);
      case RtlOp::Not:
        return require(*e.args[0],
                       NetGraph::mask_width(~v, e.args[0]->width));
      case RtlOp::And: {
        if (v == NetGraph::mask_width(~0ULL, e.width) &&
            e.args[0]->width == e.width && e.args[1]->width == e.width) {
          return require(*e.args[0], v) && require(*e.args[1], v);
        }
        if (e.width == 1 && v == 0) {
          auto a = partial_eval(*e.args[0]);
          auto b = partial_eval(*e.args[1]);
          if (a && *a != 0) return require(*e.args[1], 0);
          if (b && *b != 0) return require(*e.args[0], 0);
        }
        return true;
      }
      case RtlOp::Or: {
        if (v == 0) {
          return require(*e.args[0], 0) && require(*e.args[1], 0);
        }
        if (e.width == 1) {
          auto a = partial_eval(*e.args[0]);
          auto b = partial_eval(*e.args[1]);
          if (a && *a == 0) return require(*e.args[1], 1);
          if (b && *b == 0) return require(*e.args[0], 1);
        }
        return true;
      }
      case RtlOp::Xor: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && e.args[1]->width == e.width) {
          return require(*e.args[1], v ^ *a);
        }
        if (b && e.args[0]->width == e.width) {
          return require(*e.args[0], v ^ *b);
        }
        return true;
      }
      case RtlOp::Eq:
      case RtlOp::Ne: {
        const bool want_equal = (e.op == RtlOp::Eq) == (v != 0);
        if (!want_equal) return true;  // disequalities carry no exact fact
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && b) return *a == *b;
        if (b) return require(*e.args[0], *b);
        if (a) return require(*e.args[1], *a);
        return true;
      }
      case RtlOp::Mux: {
        auto s = partial_eval(*e.args[0]);
        if (s) return require(*s != 0 ? *e.args[1] : *e.args[2], v);
        auto t = partial_eval(*e.args[1]);
        auto f = partial_eval(*e.args[2]);
        if (t && f) {
          const std::uint64_t tv = NetGraph::mask_width(*t, e.width);
          const std::uint64_t fv = NetGraph::mask_width(*f, e.width);
          if (tv == v && fv != v) return require(*e.args[0], 1);
          if (fv == v && tv != v) return require(*e.args[0], 0);
          if (tv != v && fv != v) return false;
          return true;
        }
        nominate_split(*e.args[0]);
        return true;
      }
      case RtlOp::Slice: {
        if (e.lo == 0 && e.hi == e.args[0]->width - 1) {
          return require(*e.args[0], v);
        }
        return true;
      }
      case RtlOp::Concat: {
        int offset = e.width;
        for (const auto& part : e.args) {
          offset -= part->width;
          const std::uint64_t pv =
              NetGraph::mask_width(offset >= 0 ? v >> offset : 0, part->width);
          if (!require(*part, pv)) return false;
        }
        return true;
      }
      case RtlOp::ReduceOr:
        if (v == 0) return require(*e.args[0], 0);
        if (e.args[0]->width == 1) return require(*e.args[0], 1);
        return true;
      case RtlOp::ReduceAnd:
        if (v != 0) {
          return require(*e.args[0],
                         NetGraph::mask_width(~0ULL, e.args[0]->width));
        }
        if (e.args[0]->width == 1) return require(*e.args[0], 0);
        return true;
      case RtlOp::Add:
      case RtlOp::Sub:
      case RtlOp::Lt:
      case RtlOp::Le:
      case RtlOp::Shl:
      case RtlOp::Shr:
        return true;  // no exact backward facts
    }
    return true;
  }

 private:
  /// Value of e under current facts and folded constants, when determined.
  [[nodiscard]] std::optional<std::uint64_t> partial_eval(const RtlExpr& e) {
    switch (e.op) {
      case RtlOp::Const:
        return NetGraph::mask_width(e.value, e.width);
      case RtlOp::Ref:
        if (store_.known(e.net)) return store_.value(e.net);
        return g_.const_value(e.net);
      case RtlOp::Not: {
        auto v = partial_eval(*e.args[0]);
        if (!v) return std::nullopt;
        return NetGraph::mask_width(~*v, e.width);
      }
      case RtlOp::And: {
        auto a = partial_eval(*e.args[0]);
        if (a && *a == 0) return 0;
        auto b = partial_eval(*e.args[1]);
        if (b && *b == 0) return 0;
        if (a && b) return NetGraph::mask_width(*a & *b, e.width);
        return std::nullopt;
      }
      case RtlOp::Or: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (e.width == 1 && a && *a == 1) return 1;
        if (e.width == 1 && b && *b == 1) return 1;
        if (a && b) return NetGraph::mask_width(*a | *b, e.width);
        return std::nullopt;
      }
      case RtlOp::Eq: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && b) return *a == *b ? 1 : 0;
        return std::nullopt;
      }
      case RtlOp::Mux: {
        auto s = partial_eval(*e.args[0]);
        if (!s) return std::nullopt;
        auto arm = partial_eval(*s != 0 ? *e.args[1] : *e.args[2]);
        if (!arm) return std::nullopt;
        return NetGraph::mask_width(*arm, e.width);
      }
      default: {
        // Fall back to pure constant folding for the remaining shapes.
        return g_.fold(e);
      }
    }
  }

  void nominate_split(const RtlExpr& sel) {
    if (sel.op == RtlOp::Ref && sel.width == 1 &&
        g_.module().net(sel.net).width == 1) {
      if (std::find(split_candidates.begin(), split_candidates.end(),
                    sel.net) == split_candidates.end()) {
        split_candidates.push_back(sel.net);
      }
    }
  }

  const NetGraph& g_;
  FactStore& store_;
};

// ---------------------------------------------------------------------------
// Pair-coverage bookkeeping: one bit row per member.
// ---------------------------------------------------------------------------

class PairMatrix {
 public:
  /// Resizes to k members, every pair set (ones) or clear; keeps storage.
  void reset(int k, bool ones) {
    k_ = k;
    words_ = static_cast<std::size_t>((k + 63) / 64);
    bits_.assign(static_cast<std::size_t>(k_) * words_,
                 ones ? ~0ULL : 0ULL);
  }

  void set(int i, int j) {
    bits_[static_cast<std::size_t>(i) * words_ +
          static_cast<std::size_t>(j / 64)] |= 1ULL << (j % 64);
    bits_[static_cast<std::size_t>(j) * words_ +
          static_cast<std::size_t>(i / 64)] |= 1ULL << (i % 64);
  }

  void set_row(int i) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[static_cast<std::size_t>(i) * words_ + w] = ~0ULL;
    }
    for (int j = 0; j < k_; ++j) set(i, j);
  }

  [[nodiscard]] bool get(int i, int j) const {
    return (bits_[static_cast<std::size_t>(i) * words_ +
                  static_cast<std::size_t>(j / 64)] >>
            (j % 64)) &
           1ULL;
  }

  void or_into_row(int i, const std::vector<std::uint64_t>& row) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[static_cast<std::size_t>(i) * words_ + w] |= row[w];
    }
  }

  void and_with(const PairMatrix& other) {
    for (std::size_t w = 0; w < bits_.size(); ++w) bits_[w] &= other.bits_[w];
  }

  [[nodiscard]] int words() const { return static_cast<int>(words_); }

 private:
  int k_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

// Per-net value groups accumulated during one case. clear() keeps the
// member vectors' storage for the next case.
struct NetGroups {
  // Parallel arrays: distinct values seen, and the members that derived
  // each value; the first `count` entries are live. Nearly always two
  // groups, one a singleton.
  std::vector<std::uint64_t> values;
  std::vector<std::vector<int>> members;
  std::size_t count = 0;

  void add(std::uint64_t v, int member) {
    for (std::size_t i = 0; i < count; ++i) {
      if (values[i] == v) {
        members[i].push_back(member);
        return;
      }
    }
    if (count == values.size()) {
      values.emplace_back();
      members.emplace_back();
    }
    values[count] = v;
    members[count].assign(1, member);
    ++count;
  }

  void clear() { count = 0; }
};

// ---------------------------------------------------------------------------
// Exhaustive fallback: evaluate the pair's cones over every assignment of
// their (small) free support.
// ---------------------------------------------------------------------------

class ConeEval {
 public:
  explicit ConeEval(const NetGraph& g)
      : g_(g),
        value_(static_cast<std::size_t>(g.net_count()), 0),
        state_(static_cast<std::size_t>(g.net_count()), 0),
        epoch_(static_cast<std::size_t>(g.net_count()), 0) {}

  void new_assignment() { ++cur_; }

  void set(int net, std::uint64_t v) {
    auto un = static_cast<std::size_t>(net);
    epoch_[un] = cur_;
    state_[un] = 2;
    value_[un] = NetGraph::mask_width(v, g_.module().net(net).width);
  }

  std::uint64_t net_value(int net) {
    auto un = static_cast<std::size_t>(net);
    if (epoch_[un] == cur_ && state_[un] == 2) return value_[un];
    if (epoch_[un] == cur_ && state_[un] == 1) return 0;  // comb cycle guard
    epoch_[un] = cur_;
    state_[un] = 1;
    const RtlExpr* drv = g_.comb_driver(net);
    std::uint64_t v = 0;
    if (drv != nullptr) {
      v = NetGraph::mask_width(eval(*drv), g_.module().net(net).width);
    }
    epoch_[un] = cur_;
    state_[un] = 2;
    value_[un] = v;
    return v;
  }

  std::uint64_t eval(const RtlExpr& e) {
    auto m = [&](std::uint64_t v) { return NetGraph::mask_width(v, e.width); };
    switch (e.op) {
      case RtlOp::Const:
        return m(e.value);
      case RtlOp::Ref:
        return net_value(e.net);
      case RtlOp::Slice:
        return NetGraph::mask_width(eval(*e.args[0]) >> e.lo,
                                    e.hi - e.lo + 1);
      case RtlOp::Concat: {
        std::uint64_t v = 0;
        for (const auto& a : e.args) {
          v = (v << a->width) | NetGraph::mask_width(eval(*a), a->width);
        }
        return m(v);
      }
      case RtlOp::Not:
        return m(~eval(*e.args[0]));
      case RtlOp::And:
        return m(eval(*e.args[0]) & eval(*e.args[1]));
      case RtlOp::Or:
        return m(eval(*e.args[0]) | eval(*e.args[1]));
      case RtlOp::Xor:
        return m(eval(*e.args[0]) ^ eval(*e.args[1]));
      case RtlOp::Add:
        return m(eval(*e.args[0]) + eval(*e.args[1]));
      case RtlOp::Sub:
        return m(eval(*e.args[0]) - eval(*e.args[1]));
      case RtlOp::Eq:
        return eval(*e.args[0]) == eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Ne:
        return eval(*e.args[0]) != eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Lt:
        return eval(*e.args[0]) < eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Le:
        return eval(*e.args[0]) <= eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Shl:
        return m(eval(*e.args[0]) << eval(*e.args[1]));
      case RtlOp::Shr:
        return m(eval(*e.args[0]) >> eval(*e.args[1]));
      case RtlOp::Mux:
        return m(eval(*e.args[0]) != 0 ? eval(*e.args[1])
                                       : eval(*e.args[2]));
      case RtlOp::ReduceOr:
        return eval(*e.args[0]) != 0 ? 1 : 0;
      case RtlOp::ReduceAnd:
        return NetGraph::mask_width(eval(*e.args[0]), e.args[0]->width) ==
                       NetGraph::mask_width(~0ULL, e.args[0]->width)
                   ? 1
                   : 0;
    }
    return 0;
  }

 private:
  const NetGraph& g_;
  std::vector<std::uint64_t> value_;
  std::vector<char> state_;  // 0 none, 1 in progress, 2 done (this epoch)
  std::vector<std::uint32_t> epoch_;
  std::uint32_t cur_ = 1;
};

struct EnumResult {
  enum class Kind { Proved, Violation, TooWide } kind = Kind::TooWide;
  std::string witness;
};

EnumResult enumerate_pair(const NetGraph& g, int a, int b, int max_bits) {
  EnumResult res;
  std::vector<int> support = g.cone_support({a, b});
  int total_bits = 0;
  for (int s : support) total_bits += g.module().net(s).width;
  if (total_bits > max_bits) return res;  // TooWide

  ConeEval eval(g);
  const std::uint64_t limit = 1ULL << total_bits;
  for (std::uint64_t word = 0; word < limit; ++word) {
    eval.new_assignment();
    int off = 0;
    for (int s : support) {
      const int w = g.module().net(s).width;
      eval.set(s, (word >> off) & NetGraph::mask_width(~0ULL, w));
      off += w;
    }
    if (eval.net_value(a) != 0 && eval.net_value(b) != 0) {
      std::ostringstream witness;
      bool any = false;
      int woff = 0;
      for (int s : support) {
        const int w = g.module().net(s).width;
        const std::uint64_t v = (word >> woff) & NetGraph::mask_width(~0ULL, w);
        woff += w;
        if (v == 0) continue;
        if (any) witness << ' ';
        witness << g.net_name(s) << '=' << v;
        any = true;
      }
      if (!any) witness << "(all cone inputs 0)";
      witness << " -> " << g.net_name(a) << "=1 " << g.net_name(b) << "=1";
      res.kind = EnumResult::Kind::Violation;
      res.witness = witness.str();
      return res;
    }
  }
  res.kind = EnumResult::Kind::Proved;
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------

/// Everything prove() allocates, sized to one module's graph and reused
/// across cases and claims.
struct OneHotProver::Scratch {
  explicit Scratch(const NetGraph& g)
      : store(g.net_count()),
        groups(static_cast<std::size_t>(g.net_count())) {}

  FactStore store;
  std::vector<NetGroups> groups;  // per net, this case's value groups
  std::vector<int> touched;       // nets with a nonempty group this case
  PairMatrix covered;    // pairs separated in every case of the last round
  PairMatrix all_cases;  // this round's running intersection
  PairMatrix case_cov;   // pairs separated in this case
  std::vector<char> impossible;  // per member: assuming it contradicts
  std::vector<std::pair<int, std::uint64_t>> seed_facts;
  std::vector<std::uint64_t> row;
};

OneHotProver::OneHotProver(const NetGraph& g)
    : g_(g), s_(std::make_unique<Scratch>(g)) {}

OneHotProver::~OneHotProver() = default;

std::vector<int> OneHotProver::run_round(const std::vector<int>& ms,
                                         const std::vector<int>& splits,
                                         OneHotOutcome& out) {
  Scratch& sc = *s_;
  const int k = static_cast<int>(ms.size());
  const int ncases = 1 << splits.size();
  sc.all_cases.reset(k, /*ones=*/true);
  std::vector<int> next_candidates;
  for (int c = 0; c < ncases; ++c) {
    sc.case_cov.reset(k, /*ones=*/false);
    // Seed facts defining this case.
    sc.store.reset();
    Propagator seed_prop(g_, sc.store);
    bool case_possible = true;
    for (std::size_t b = 0; b < splits.size(); ++b) {
      if (!seed_prop.assume_net(splits[b], (c >> b) & 1ULL)) {
        case_possible = false;
        break;
      }
    }
    out.facts_derived += seed_prop.facts;
    if (!case_possible) continue;  // vacuous: everything stays covered
    sc.seed_facts.clear();
    for (int net : sc.store.trail()) {
      sc.seed_facts.emplace_back(net, sc.store.value(net));
    }

    for (int net : sc.touched) sc.groups[static_cast<std::size_t>(net)].clear();
    sc.touched.clear();
    sc.impossible.assign(static_cast<std::size_t>(k), 0);
    for (int i = 0; i < k; ++i) {
      sc.store.reset();
      bool ok = true;
      for (const auto& [net, v] : sc.seed_facts) {
        // Replaying recorded closures: plain inserts, no re-derivation.
        if (sc.store.record(net, v) == FactStore::Record::Contradiction) {
          ok = false;
          break;
        }
      }
      Propagator prop(g_, sc.store);
      ok = ok && prop.assume_net(ms[static_cast<std::size_t>(i)], 1);
      out.facts_derived += prop.facts;
      for (int cand : prop.split_candidates) {
        if (std::find(next_candidates.begin(), next_candidates.end(), cand) ==
            next_candidates.end()) {
          next_candidates.push_back(cand);
        }
      }
      if (!ok) {
        sc.impossible[static_cast<std::size_t>(i)] = 1;
        continue;
      }
      // The first seed_facts.size() trail entries are the replayed seeds;
      // everything after is this member's own closure.
      const std::vector<int>& trail = sc.store.trail();
      for (std::size_t t = sc.seed_facts.size(); t < trail.size(); ++t) {
        const int net = trail[t];
        NetGroups& ng = sc.groups[static_cast<std::size_t>(net)];
        if (ng.count == 0) sc.touched.push_back(net);
        ng.add(sc.store.value(net), i);
      }
    }

    // Conflicts: members deriving different values of the same net.
    sc.row.assign(static_cast<std::size_t>(sc.case_cov.words()), 0);
    for (int net : sc.touched) {
      const NetGroups& ng = sc.groups[static_cast<std::size_t>(net)];
      if (ng.count < 2) continue;
      for (std::size_t a = 0; a < ng.count; ++a) {
        for (std::size_t b = a + 1; b < ng.count; ++b) {
          const auto& ga = ng.members[a];
          const auto& gb = ng.members[b];
          const auto& small = ga.size() <= gb.size() ? ga : gb;
          const auto& large = ga.size() <= gb.size() ? gb : ga;
          if (small.size() == 1) {
            const int s = small.front();
            std::fill(sc.row.begin(), sc.row.end(), 0);
            for (int o : large) {
              sc.row[static_cast<std::size_t>(o / 64)] |= 1ULL << (o % 64);
              sc.case_cov.set(o, s);
            }
            sc.case_cov.or_into_row(s, sc.row);
          } else {
            for (int x : small) {
              for (int y : large) sc.case_cov.set(x, y);
            }
          }
        }
      }
    }
    for (int i = 0; i < k; ++i) {
      if (sc.impossible[static_cast<std::size_t>(i)] != 0) {
        sc.case_cov.set_row(i);
      }
    }
    sc.all_cases.and_with(sc.case_cov);
  }
  std::swap(sc.covered, sc.all_cases);
  out.cases_used += ncases;
  return next_candidates;
}

OneHotOutcome OneHotProver::prove(const std::vector<int>& members,
                                  const OneHotOptions& opt) {
  const NetGraph& g = g_;
  OneHotOutcome out;

  // Deduplicate while preserving order; a literally repeated net can
  // trivially be high "twice", so report it as a violation outright.
  std::vector<int> ms;
  for (int m : members) {
    if (std::find(ms.begin(), ms.end(), m) != ms.end()) {
      out.status = OneHotStatus::Violation;
      out.net_a = out.net_b = m;
      out.witness = g.net_name(m) + " listed twice in the claim";
      return out;
    }
    ms.push_back(m);
  }
  const int k = static_cast<int>(ms.size());
  out.pairs_total = k * (k - 1) / 2;
  if (k < 2) {
    out.status = OneHotStatus::Proved;
    out.cases_used = 0;
    return out;
  }

  std::vector<int> split_nets;  // grows after a failed round
  // covered(i,j) once a contradiction separates the pair in EVERY case.
  const PairMatrix& covered = s_->covered;
  std::vector<int> candidates = run_round(ms, split_nets, out);

  auto all_covered = [&]() {
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (!covered.get(i, j)) return false;
      }
    }
    return true;
  };

  if (!all_covered() && !candidates.empty()) {
    for (int cand : candidates) {
      if (static_cast<int>(split_nets.size()) >= opt.max_split_nets) break;
      split_nets.push_back(cand);
    }
    run_round(ms, split_nets, out);
  }

  // Count implication-proved pairs, then hand leftovers to enumeration.
  std::vector<std::pair<int, int>> unproved;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (covered.get(i, j)) {
        ++out.pairs_by_implication;
      } else {
        unproved.emplace_back(i, j);
      }
    }
  }

  int fallback_used = 0;
  for (const auto& [i, j] : unproved) {
    const int a = ms[static_cast<std::size_t>(i)];
    const int b = ms[static_cast<std::size_t>(j)];
    if (fallback_used >= opt.max_fallback_pairs) {
      out.status = OneHotStatus::Inconclusive;
      out.net_a = a;
      out.net_b = b;
      out.detail = "fallback budget exhausted";
      return out;
    }
    ++fallback_used;
    EnumResult er = enumerate_pair(g, a, b, opt.max_enum_bits);
    switch (er.kind) {
      case EnumResult::Kind::Proved:
        ++out.pairs_by_enumeration;
        break;
      case EnumResult::Kind::Violation:
        out.status = OneHotStatus::Violation;
        out.net_a = a;
        out.net_b = b;
        out.witness = std::move(er.witness);
        return out;
      case EnumResult::Kind::TooWide:
        out.status = OneHotStatus::Inconclusive;
        out.net_a = a;
        out.net_b = b;
        out.detail = "cone support exceeds the enumeration budget";
        return out;
    }
  }

  out.status = OneHotStatus::Proved;
  {
    std::ostringstream d;
    d << out.pairs_total << " pair(s) proved ("
      << out.pairs_by_implication << " by implication, "
      << out.pairs_by_enumeration << " by enumeration) across "
      << out.cases_used << " case(s)";
    if (!split_nets.empty()) {
      d << ", split on";
      for (int s : split_nets) d << ' ' << g.net_name(s);
    }
    out.detail = d.str();
  }
  return out;
}

OneHotOutcome prove_onehot(const NetGraph& g, const std::vector<int>& members,
                           const OneHotOptions& opt) {
  return OneHotProver(g).prove(members, opt);
}

}  // namespace hicsync::nlint
