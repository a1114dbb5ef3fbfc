#include "nlint/nlint.h"

#include <algorithm>
#include <sstream>

#include "nlint/netgraph.h"
#include "support/json.h"

namespace hicsync::nlint {
namespace {

using rtl::RtlExpr;
using rtl::RtlOp;
using support::Severity;

const std::vector<CheckInfo>& registry_storage() {
  static const std::vector<CheckInfo> checks = {
      {"nlint-comb-loop", Severity::Error,
       "combinational loop through continuous assigns (cycle witness)"},
      {"nlint-undriven-net", Severity::Error,
       "net is read but nothing drives it"},
      {"nlint-multiple-drivers", Severity::Error,
       "net has conflicting drivers (lists every driver)"},
      {"nlint-unread-net", Severity::Note,
       "driven non-output net that nothing reads"},
      {"nlint-dead-cone", Severity::Note,
       "net only read behind constant (unreachable) mux selects"},
      {"nlint-width-mismatch", Severity::Error,
       "expression-tree width inconsistency (operands, mux arms, targets)"},
      {"nlint-onehot-violation", Severity::Error,
       "mutual-exclusion claim refuted, with an overlapping assignment"},
      {"nlint-onehot-unproved", Severity::Warning,
       "mutual-exclusion claim the bounded prover could not settle"},
      {"nlint-uninitialized-feedback", Severity::Warning,
       "register on a sequential feedback path without a reset value"},
      {"nlint-census-drift", Severity::Error,
       "netlist census disagrees with the BramReport/DepListHint model"},
  };
  return checks;
}

class Checker {
 public:
  Checker(const rtl::Module& module, const NlintOptions& options,
          const Expectations* exp, NlintResult& result)
      : m_(module), g_(module), opt_(options), exp_(exp), result_(result) {
    summary_.module = module.name();
    summary_.nets = static_cast<int>(module.nets().size());
    summary_.assigns = static_cast<int>(module.assigns().size());
  }

  void run() {
    if (enabled("nlint-comb-loop")) check_comb_loops();
    if (enabled("nlint-undriven-net")) check_undriven();
    if (enabled("nlint-multiple-drivers")) check_multiple_drivers();
    if (enabled("nlint-unread-net")) check_unread();
    if (enabled("nlint-dead-cone")) check_dead_cones();
    if (enabled("nlint-width-mismatch")) check_widths();
    if (enabled("nlint-onehot-violation") ||
        enabled("nlint-onehot-unproved")) {
      check_onehot();
    }
    if (enabled("nlint-uninitialized-feedback")) check_reset_coverage();
    if (enabled("nlint-census-drift")) check_census();
    result_.modules.push_back(summary_);
  }

 private:
  [[nodiscard]] bool enabled(std::string_view id) const {
    if (opt_.checks.empty()) return true;
    return std::find(opt_.checks.begin(), opt_.checks.end(), id) !=
           opt_.checks.end();
  }

  void report(const char* id, std::string message) {
    const CheckInfo* info = find_check(id);
    Finding f;
    f.check_id = id;
    f.severity = info != nullptr ? info->default_severity : Severity::Error;
    f.module = m_.name();
    f.message = std::move(message);
    result_.findings.push_back(std::move(f));
  }

  // --- comb loops ---------------------------------------------------------

  void check_comb_loops() {
    for (const std::vector<int>& cycle : g_.comb_cycles()) {
      std::ostringstream msg;
      msg << "combinational loop: ";
      for (int net : cycle) msg << g_.net_name(net) << " -> ";
      msg << g_.net_name(cycle.front());
      report("nlint-comb-loop", msg.str());
    }
  }

  // --- driver inventory ---------------------------------------------------

  void check_undriven() {
    for (int n = 0; n < g_.net_count(); ++n) {
      const auto& inf = g_.info(n);
      if (inf.reads > 0 && !g_.driven(n)) {
        report("nlint-undriven-net",
               "net '" + g_.net_name(n) + "' is read " +
                   std::to_string(inf.reads) +
                   " time(s) but nothing drives it");
      }
    }
  }

  void check_multiple_drivers() {
    for (int n = 0; n < g_.net_count(); ++n) {
      const auto& inf = g_.info(n);
      const std::size_t drivers = inf.cont_drivers.size() +
                                  inf.seq_drivers.size() +
                                  (inf.mem_read ? 1 : 0) +
                                  (inf.is_input ? 1 : 0);
      if (drivers < 2) continue;
      // A reg with several seq drivers in distinct enable regions is the
      // only benign-looking shape, and even that is last-write-wins in
      // rtl::eval — report everything with >1 driver.
      std::ostringstream msg;
      msg << "net '" << g_.net_name(n) << "' has " << drivers
          << " drivers: ";
      const char* sep = "";
      for (int a : inf.cont_drivers) {
        msg << sep << "continuous assign #" << a;
        sep = ", ";
      }
      for (int s : inf.seq_drivers) {
        msg << sep << "sequential assign #" << s;
        sep = ", ";
      }
      if (inf.mem_read) {
        msg << sep << "memory read port";
        sep = ", ";
      }
      if (inf.is_input) msg << sep << "input port";
      report("nlint-multiple-drivers", msg.str());
    }
  }

  void check_unread() {
    for (int n = 0; n < g_.net_count(); ++n) {
      const auto& inf = g_.info(n);
      if (inf.is_input || inf.is_output || inf.reads > 0) continue;
      if (!g_.driven(n)) continue;
      report("nlint-unread-net",
             "net '" + g_.net_name(n) + "' is driven but never read");
    }
  }

  // --- dead cones ---------------------------------------------------------

  void live_reads(const RtlExpr& e, std::vector<int>& counts) const {
    if (e.op == RtlOp::Ref) {
      ++counts[static_cast<std::size_t>(e.net)];
      return;
    }
    if (e.op == RtlOp::Mux) {
      auto sel = g_.fold(*e.args[0]);
      if (sel.has_value()) {
        // The select is constant: the other arm can never propagate.
        live_reads(*e.args[0], counts);
        live_reads(*sel != 0 ? *e.args[1] : *e.args[2], counts);
        return;
      }
    }
    if (e.op == RtlOp::And) {
      auto a = g_.fold(*e.args[0]);
      auto b = g_.fold(*e.args[1]);
      if ((a && *a == 0) || (b && *b == 0)) {
        // A constant-zero operand kills the other cone.
        live_reads(a && *a == 0 ? *e.args[0] : *e.args[1], counts);
        return;
      }
    }
    for (const auto& a : e.args) live_reads(*a, counts);
  }

  void check_dead_cones() {
    std::vector<int> live(static_cast<std::size_t>(g_.net_count()), 0);
    for (const rtl::ContAssign& a : m_.assigns()) live_reads(*a.value, live);
    for (const rtl::SeqAssign& s : m_.seqs()) {
      live_reads(*s.value, live);
      if (s.enable != nullptr) live_reads(*s.enable, live);
    }
    for (const rtl::Memory& mem : m_.memories()) {
      for (const rtl::MemoryPort& p : mem.ports) {
        live_reads(*p.addr, live);
        if (p.write_enable != nullptr) live_reads(*p.write_enable, live);
        if (p.write_data != nullptr) live_reads(*p.write_data, live);
      }
    }
    for (int n = 0; n < g_.net_count(); ++n) {
      const auto& inf = g_.info(n);
      if (inf.is_input || inf.is_output) continue;
      if (inf.reads == 0 || live[static_cast<std::size_t>(n)] > 0) continue;
      if (!g_.driven(n)) continue;  // undriven-net already reports it
      report("nlint-dead-cone",
             "net '" + g_.net_name(n) +
                 "' is only read behind unreachable (constant) selects");
    }
  }

  // --- widths -------------------------------------------------------------

  // A site is a callable returning the location text ("assign to 'x'"),
  // so the string is only built for a finding.
  template <typename Site>
  void width_error(const Site& site, const std::string& what) {
    report("nlint-width-mismatch", site() + ": " + what);
  }

  template <typename Site>
  void check_expr_widths(const RtlExpr& e, const Site& site) {
    for (const auto& a : e.args) check_expr_widths(*a, site);
    auto wstr = [](int w) { return std::to_string(w) + "-bit"; };
    switch (e.op) {
      case RtlOp::Const:
        break;
      case RtlOp::Ref: {
        const int nw = m_.net(e.net).width;
        if (e.width != nw) {
          width_error(site, "reference to " + wstr(nw) + " net '" +
                                g_.net_name(e.net) + "' typed as " +
                                wstr(e.width));
        }
        break;
      }
      case RtlOp::Slice:
        if (e.lo < 0 || e.hi < e.lo || e.hi >= e.args[0]->width) {
          width_error(site, "slice [" + std::to_string(e.hi) + ":" +
                                std::to_string(e.lo) + "] of a " +
                                wstr(e.args[0]->width) + " value");
        } else if (e.width != e.hi - e.lo + 1) {
          width_error(site, "slice typed as " + wstr(e.width) +
                                " but selects " + wstr(e.hi - e.lo + 1));
        }
        break;
      case RtlOp::Concat: {
        int sum = 0;
        for (const auto& a : e.args) sum += a->width;
        if (e.width != sum) {
          width_error(site, "concat typed as " + wstr(e.width) +
                                " but parts total " + wstr(sum));
        }
        break;
      }
      case RtlOp::Not:
        if (e.width != e.args[0]->width) {
          width_error(site, "not of a " + wstr(e.args[0]->width) +
                                " value typed as " + wstr(e.width));
        }
        break;
      case RtlOp::And:
      case RtlOp::Or:
      case RtlOp::Xor:
      case RtlOp::Add:
      case RtlOp::Sub: {
        if (e.args[0]->width != e.args[1]->width) {
          width_error(site, "operand widths differ: " +
                                wstr(e.args[0]->width) + " vs " +
                                wstr(e.args[1]->width));
        } else if (e.width != e.args[0]->width) {
          width_error(site, "result typed as " + wstr(e.width) +
                                " from " + wstr(e.args[0]->width) +
                                " operands");
        }
        break;
      }
      case RtlOp::Eq:
      case RtlOp::Ne:
      case RtlOp::Lt:
      case RtlOp::Le:
        if (e.args[0]->width != e.args[1]->width) {
          width_error(site, "comparison operand widths differ: " +
                                wstr(e.args[0]->width) + " vs " +
                                wstr(e.args[1]->width));
        }
        if (e.width != 1) {
          width_error(site, "comparison result typed as " + wstr(e.width));
        }
        break;
      case RtlOp::Shl:
      case RtlOp::Shr:
        if (e.args[1]->op != RtlOp::Const) {
          width_error(site, "shift amount must be a constant");
        }
        if (e.width != e.args[0]->width) {
          width_error(site, "shift result typed as " + wstr(e.width) +
                                " from a " + wstr(e.args[0]->width) +
                                " value");
        }
        break;
      case RtlOp::Mux: {
        if (e.args[0]->width != 1) {
          width_error(site,
                      "mux select is " + wstr(e.args[0]->width) +
                          " (must be 1-bit)");
        }
        if (e.args[1]->width != e.args[2]->width) {
          width_error(site, "mux arms differ: " + wstr(e.args[1]->width) +
                                " vs " + wstr(e.args[2]->width) +
                                " (narrow arm is silently zero-extended)");
        } else if (e.width != e.args[1]->width) {
          width_error(site, "mux typed as " + wstr(e.width) + " with " +
                                wstr(e.args[1]->width) + " arms");
        }
        break;
      }
      case RtlOp::ReduceOr:
      case RtlOp::ReduceAnd:
        if (e.width != 1) {
          width_error(site, "reduction typed as " + wstr(e.width));
        }
        break;
    }
  }

  void check_widths() {
    for (const rtl::ContAssign& a : m_.assigns()) {
      auto site = [&] { return "assign to '" + g_.net_name(a.target) + "'"; };
      check_expr_widths(*a.value, site);
      if (a.value->width != m_.net(a.target).width) {
        width_error(site, "value is " + std::to_string(a.value->width) +
                              "-bit for a " +
                              std::to_string(m_.net(a.target).width) +
                              "-bit net");
      }
    }
    for (const rtl::SeqAssign& s : m_.seqs()) {
      auto site = [&] {
        return "next-state of '" + g_.net_name(s.target) + "'";
      };
      check_expr_widths(*s.value, site);
      if (s.value->width != m_.net(s.target).width) {
        width_error(site, "value is " + std::to_string(s.value->width) +
                              "-bit for a " +
                              std::to_string(m_.net(s.target).width) +
                              "-bit register");
      }
      if (s.enable != nullptr) {
        check_expr_widths(*s.enable, [&] { return site() + " (enable)"; });
        if (s.enable->width != 1) {
          width_error(site, "enable is " + std::to_string(s.enable->width) +
                                "-bit (must be 1-bit)");
        }
      }
    }
    for (const rtl::Memory& mem : m_.memories()) {
      for (std::size_t i = 0; i < mem.ports.size(); ++i) {
        const rtl::MemoryPort& p = mem.ports[i];
        auto site = [&] {
          return "memory '" + mem.name + "' port " + std::to_string(i);
        };
        check_expr_widths(*p.addr, [&] { return site() + " (address)"; });
        if (p.write_enable != nullptr) {
          check_expr_widths(*p.write_enable,
                            [&] { return site() + " (write enable)"; });
          if (p.write_enable->width != 1) {
            width_error(site, "write enable is " +
                                  std::to_string(p.write_enable->width) +
                                  "-bit (must be 1-bit)");
          }
        }
        if (p.write_data != nullptr) {
          check_expr_widths(*p.write_data,
                            [&] { return site() + " (write data)"; });
          if (p.write_data->width != mem.width) {
            width_error(site, "write data is " +
                                  std::to_string(p.write_data->width) +
                                  "-bit for a " + std::to_string(mem.width) +
                                  "-bit memory");
          }
        }
      }
    }
  }

  // --- one-hot claims -----------------------------------------------------

  void check_onehot() {
    if (m_.onehot_claims().empty()) return;
    OneHotProver prover(g_);
    for (const rtl::OneHotClaim& claim : m_.onehot_claims()) {
      ++summary_.claims_total;
      OneHotOutcome outcome = prover.prove(claim.nets, opt_.onehot);
      summary_.facts_derived += outcome.facts_derived;
      if (opt_.explain) {
        std::ostringstream ex;
        ex << m_.name() << ": " << claim.origin << " ("
           << claim.nets.size() << " nets): " << to_string(outcome.status);
        if (!outcome.detail.empty()) ex << " — " << outcome.detail;
        if (!outcome.witness.empty()) ex << " — " << outcome.witness;
        result_.explain.push_back(ex.str());
      }
      switch (outcome.status) {
        case OneHotStatus::Proved:
          ++summary_.claims_proved;
          break;
        case OneHotStatus::Violation: {
          ++summary_.claims_refuted;
          if (!enabled("nlint-onehot-violation")) break;
          std::ostringstream msg;
          msg << claim.origin << ": nets '" << g_.net_name(outcome.net_a)
              << "' and '" << g_.net_name(outcome.net_b)
              << "' can be high together: " << outcome.witness;
          report("nlint-onehot-violation", msg.str());
          break;
        }
        case OneHotStatus::Inconclusive: {
          ++summary_.claims_inconclusive;
          if (!enabled("nlint-onehot-unproved")) break;
          std::ostringstream msg;
          msg << claim.origin << ": exclusivity of '"
              << g_.net_name(outcome.net_a) << "' and '"
              << g_.net_name(outcome.net_b) << "' not proved";
          if (!outcome.detail.empty()) msg << " (" << outcome.detail << ")";
          report("nlint-onehot-unproved", msg.str());
          break;
        }
      }
    }
  }

  // --- reset coverage -----------------------------------------------------

  /// Registers in the comb-expanded support of an expression.
  void reg_support(const RtlExpr* e, std::vector<int>& regs) const {
    if (e == nullptr) return;
    std::vector<int> roots;
    collect_root_refs(*e, roots);
    for (int t : g_.cone_support(roots)) {
      if (m_.net(t).kind == rtl::NetKind::Reg) regs.push_back(t);
    }
  }

  static void collect_root_refs(const RtlExpr& e, std::vector<int>& refs) {
    if (e.op == RtlOp::Ref) refs.push_back(e.net);
    for (const auto& a : e.args) collect_root_refs(*a, refs);
  }

  void check_reset_coverage() {
    for (const rtl::SeqAssign& s : m_.seqs()) {
      if (s.has_reset) continue;
      // Feedback search: does target's next value depend (through any chain
      // of registers) on the target itself?
      std::vector<int> frontier;
      reg_support(s.value.get(), frontier);
      reg_support(s.enable.get(), frontier);
      std::vector<char> seen(static_cast<std::size_t>(g_.net_count()), 0);
      bool feedback = false;
      while (!frontier.empty() && !feedback) {
        int r = frontier.back();
        frontier.pop_back();
        if (seen[static_cast<std::size_t>(r)] != 0) continue;
        seen[static_cast<std::size_t>(r)] = 1;
        if (r == s.target) {
          feedback = true;
          break;
        }
        for (int si : g_.info(r).seq_drivers) {
          const rtl::SeqAssign& sd =
              m_.seqs()[static_cast<std::size_t>(si)];
          reg_support(sd.value.get(), frontier);
          reg_support(sd.enable.get(), frontier);
        }
      }
      if (feedback) {
        report("nlint-uninitialized-feedback",
               "register '" + g_.net_name(s.target) +
                   "' holds a feedback path but has no reset value; "
                   "rtl::eval powers on at 0, hardware may not");
      }
    }
  }

  // --- census -------------------------------------------------------------

  /// Number of nets named `<prefix><integer><suffix>` exactly.
  [[nodiscard]] int count_family(const std::string& prefix,
                                 const std::string& suffix,
                                 bool inputs_only) const {
    int count = 0;
    for (const rtl::Net& n : m_.nets()) {
      const std::string& name = n.name;
      if (name.size() <= prefix.size() + suffix.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (suffix.size() > 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      const std::size_t digits_begin = prefix.size();
      const std::size_t digits_end = name.size() - suffix.size();
      if (digits_begin >= digits_end) continue;
      bool all_digits = true;
      for (std::size_t i = digits_begin; i < digits_end; ++i) {
        if (name[i] < '0' || name[i] > '9') {
          all_digits = false;
          break;
        }
      }
      if (!all_digits) continue;
      if (inputs_only && !g_.info(n.id).is_input) continue;
      ++count;
    }
    return count;
  }

  void census_mismatch(const std::string& what, int netlist, int model) {
    report("nlint-census-drift",
           what + ": netlist has " + std::to_string(netlist) +
               ", model expects " + std::to_string(model));
  }

  void check_census() {
    if (exp_ == nullptr) return;
    if (exp_->ffs >= 0 && m_.flipflop_bits() != exp_->ffs) {
      census_mismatch("flip-flop bits", m_.flipflop_bits(), exp_->ffs);
    }
    if (exp_->consumers >= 0) {
      const int nc = count_family("c_req", "", /*inputs_only=*/true);
      if (nc != exp_->consumers) {
        census_mismatch("consumer pseudo-ports", nc, exp_->consumers);
      }
    }
    if (exp_->producers >= 0) {
      const std::string prefix =
          exp_->org == Expectations::Org::EventDriven ? "p_req" : "d_req";
      const int np = count_family(prefix, "", /*inputs_only=*/true);
      if (np != exp_->producers) {
        census_mismatch("producer pseudo-ports", np, exp_->producers);
      }
    }
    if (exp_->dependencies >= 0 &&
        exp_->org == Expectations::Org::Arbitrated) {
      const int ne = count_family("dep", "_count", /*inputs_only=*/false);
      if (ne != exp_->dependencies) {
        census_mismatch(
            "dependency-list entries (dep<i>_count registers; a pruned "
            "DepListHint entry must be absent)",
            ne, exp_->dependencies);
      }
    }
    if (exp_->slots >= 0 && exp_->org == Expectations::Org::EventDriven) {
      const int ns = count_family("fire_s", "", /*inputs_only=*/false);
      if (ns != exp_->slots) {
        census_mismatch("event slots (fire_s<i> wires)", ns, exp_->slots);
      }
    }
  }

  const rtl::Module& m_;
  NetGraph g_;
  const NlintOptions& opt_;
  const Expectations* exp_;
  NlintResult& result_;
  ModuleSummary summary_;
};

}  // namespace

const std::vector<CheckInfo>& check_registry() { return registry_storage(); }

const CheckInfo* find_check(std::string_view id) {
  for (const CheckInfo& c : registry_storage()) {
    if (id == c.id) return &c;
  }
  return nullptr;
}

int NlintResult::errors() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::Error) ++n;
  }
  return n;
}

int NlintResult::warnings() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::Warning) ++n;
  }
  return n;
}

int NlintResult::notes() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::Note) ++n;
  }
  return n;
}

int NlintResult::claims_inconclusive() const {
  int n = 0;
  for (const ModuleSummary& m : modules) n += m.claims_inconclusive;
  return n;
}

std::string NlintResult::text() const {
  std::ostringstream out;
  for (const ModuleSummary& m : modules) {
    out << "nlint: module '" << m.module << "': " << m.nets << " nets, "
        << m.assigns << " assigns; claims: " << m.claims_proved << "/"
        << m.claims_total << " proved";
    if (m.claims_refuted > 0) out << ", " << m.claims_refuted << " refuted";
    if (m.claims_inconclusive > 0) {
      out << ", " << m.claims_inconclusive << " unproved";
    }
    out << " (" << m.facts_derived << " facts)\n";
  }
  for (const std::string& ex : explain) out << "nlint: proof: " << ex << "\n";
  for (const Finding& f : findings) {
    out << "nlint: [" << support::to_string(f.severity) << "] " << f.check_id
        << ": module '" << f.module << "': " << f.message << "\n";
  }
  out << "nlint: " << errors() << " error(s), " << warnings()
      << " warning(s), " << notes() << " note(s) across " << modules.size()
      << " module(s)\n";
  return out.str();
}

std::string NlintResult::json() const {
  std::ostringstream out;
  out << "{\"errors\":" << errors() << ",\"warnings\":" << warnings()
      << ",\"notes\":" << notes()
      << ",\"inconclusive\":" << claims_inconclusive() << ",\"modules\":[";
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const ModuleSummary& m = modules[i];
    if (i != 0) out << ',';
    out << "{\"module\":\"" << support::json_escape(m.module)
        << "\",\"nets\":" << m.nets << ",\"assigns\":" << m.assigns
        << ",\"claims\":{\"total\":" << m.claims_total
        << ",\"proved\":" << m.claims_proved
        << ",\"refuted\":" << m.claims_refuted
        << ",\"inconclusive\":" << m.claims_inconclusive
        << "},\"facts\":" << m.facts_derived << "}";
  }
  out << "],\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ',';
    out << "{\"check\":\"" << support::json_escape(f.check_id)
        << "\",\"severity\":\"" << support::to_string(f.severity)
        << "\",\"module\":\"" << support::json_escape(f.module)
        << "\",\"message\":\"" << support::json_escape(f.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

NlintResult run_module(const rtl::Module& module, const NlintOptions& options,
                       const Expectations* exp) {
  NlintResult result;
  Checker checker(module, options, exp, result);
  checker.run();
  return result;
}

NlintResult run_design(const rtl::Design& design, const NlintOptions& options,
                       const std::vector<std::string>& names,
                       const std::map<std::string, Expectations>& expectations) {
  NlintResult result;
  for (const auto& module : design.modules()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), module->name()) ==
            names.end()) {
      continue;
    }
    auto it = expectations.find(module->name());
    const Expectations* exp =
        it != expectations.end() ? &it->second : nullptr;
    merge(result, run_module(*module, options, exp));
  }
  return result;
}

void merge(NlintResult& into, NlintResult&& from) {
  for (auto& f : from.findings) into.findings.push_back(std::move(f));
  for (auto& m : from.modules) into.modules.push_back(std::move(m));
  for (auto& e : from.explain) into.explain.push_back(std::move(e));
}

std::size_t report_findings(const NlintResult& result,
                            support::DiagnosticEngine& diags) {
  std::size_t errors = 0;
  for (const Finding& f : result.findings) {
    if (f.severity == Severity::Error) ++errors;
    diags.report(f.severity, support::SourceLoc{},
                 "module '" + f.module + "': " + f.message, f.check_id);
  }
  return errors;
}

}  // namespace hicsync::nlint
