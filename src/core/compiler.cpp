#include "core/compiler.h"

#include <algorithm>
#include <map>

#include "analysis/depgraph.h"
#include "hic/infer.h"
#include "hic/parser.h"
#include "memorg/controller.h"
#include "rtl/verilog.h"
#include "support/strings.h"

namespace hicsync::core {

namespace {

std::uint64_t count_statements(const std::vector<hic::StmtPtr>& body);

std::uint64_t count_statements(const hic::Stmt& s) {
  std::uint64_t n = 1;
  n += count_statements(s.then_body);
  n += count_statements(s.else_body);
  n += count_statements(s.body);
  for (const hic::CaseArm& arm : s.arms) n += count_statements(arm.body);
  if (s.init) n += count_statements(*s.init);
  if (s.step) n += count_statements(*s.step);
  return n;
}

std::uint64_t count_statements(const std::vector<hic::StmtPtr>& body) {
  std::uint64_t n = 0;
  for (const hic::StmtPtr& s : body) {
    if (s) n += count_statements(*s);
  }
  return n;
}

}  // namespace

const synth::ThreadFsm* CompileResult::fsm(const std::string& thread) const {
  for (const auto& f : fsms_) {
    if (f.thread_name() == thread) return &f;
  }
  return nullptr;
}

std::string CompileResult::verilog() const {
  return rtl::emit_design(design_);
}

fpga::MapResult CompileResult::total_overhead() const {
  fpga::MapResult total;
  for (const BramReport& r : bram_reports_) {
    total.luts += r.area.luts;
    total.carry_luts += r.area.carry_luts;
    total.ffs += r.area.ffs;
    total.slices += r.area.slices;
    total.bram_blocks += r.area.bram_blocks;
    total.logic_levels = std::max(total.logic_levels, r.area.logic_levels);
    total.max_carry_bits =
        std::max(total.max_carry_bits, r.area.max_carry_bits);
  }
  return total;
}

double CompileResult::min_fmax_mhz() const {
  double fmax = 0.0;
  bool first = true;
  for (const BramReport& r : bram_reports_) {
    if (first || r.timing.fmax_mhz < fmax) fmax = r.timing.fmax_mhz;
    first = false;
  }
  return fmax;
}

bool CompileResult::meets_target() const {
  for (const BramReport& r : bram_reports_) {
    if (!r.timing.meets(options_.target_clock_mhz)) return false;
  }
  return true;
}

std::unique_ptr<sim::SystemSim> CompileResult::make_simulator(
    sim::SystemOptions sim_options) const {
  return std::make_unique<sim::SystemSim>(program_, *sema_, fsms_,
                                          controllers_, sim_options);
}

std::unique_ptr<sim::SystemSim> CompileResult::make_simulator() const {
  sim::SystemOptions opts;
  opts.organization = options_.organization;
  opts.restart_threads = true;
  return make_simulator(opts);
}

std::unique_ptr<CompileResult> Compiler::compile(
    std::string_view source) const {
  auto result = std::make_unique<CompileResult>();
  CompileResult& r = *result;
  r.options_ = options_;
  r.diags_.set_source_name(options_.source_name);

  // hic-perf: each pass is bracketed below; with no profiler attached the
  // brackets cost one branch each (Overhead.DisabledProfilerIsABranch).
  perf::PassTimer* prof = options_.profiler;

  // Front end. Lexing happens inside the parser, so "parse" covers both.
  {
    perf::ScopedPhase phase(prof, "parse");
    r.program_ = hic::parse_source(source, r.diags_);
  }
  if (prof != nullptr) {
    prof->set_count("ast.threads", r.program_.threads.size());
    std::uint64_t stmts = 0;
    for (const hic::ThreadDecl& t : r.program_.threads) {
      stmts += count_statements(t.body);
    }
    prof->set_count("ast.statements", stmts);
  }
  if (r.diags_.has_errors()) return result;
  if (options_.infer_dependencies) {
    perf::ScopedPhase phase(prof, "infer");
    hic::infer_dependencies(r.program_, r.diags_);
    if (r.diags_.has_errors()) return result;
  }
  {
    perf::ScopedPhase phase(prof, "sema");
    r.sema_ = std::make_unique<hic::Sema>(r.program_, r.diags_);
    if (!r.sema_->run()) return result;
  }
  if (prof != nullptr) {
    prof->set_count("ast.dependencies", r.sema_->dependencies().size());
  }

  // Static deadlock detection (§1: "deadlocks are identified statically").
  // The graph stays alive for lint, which borrows it.
  analysis::ThreadDepGraph depgraph;
  {
    perf::ScopedPhase phase(prof, "deadlock");
    depgraph = analysis::ThreadDepGraph::build(r.program_,
                                               r.sema_->dependencies());
    r.deadlock_warnings_ = depgraph.deadlock_reports();
  }

  // hic-lint, stage 1: AST/CFG/dependence-level hazard checks.
  namespace lint = analysis::lint;
  std::unique_ptr<lint::LintContext> lint_ctx;
  lint::LintDriver lint_driver(options_.lint, r.diags_);
  if (options_.lint.enabled) {
    perf::ScopedPhase phase(prof, "lint");
    lint_ctx = std::make_unique<lint::LintContext>(r.program_, *r.sema_,
                                                   depgraph);
    lint::LintDriver::Summary s =
        lint_driver.run(lint::Stage::PostSema, *lint_ctx);
    r.lint_errors_ += static_cast<std::size_t>(s.errors);
    r.lint_warnings_ += static_cast<std::size_t>(s.warnings);
  }

  // Behavioural synthesis + scheduling.
  {
    perf::ScopedPhase phase(prof, "synth");
    r.fsms_ = synth::synthesize_program(r.program_, *r.sema_,
                                        options_.schedule);
  }
  if (prof != nullptr) {
    std::uint64_t states = 0;
    for (const synth::ThreadFsm& f : r.fsms_) states += f.states().size();
    prof->set_count("synth.fsm_states", states);
  }

  // Memory allocation and port planning.
  {
    perf::ScopedPhase phase(prof, "memalloc");
    r.map_ = memalloc::Allocator().allocate(*r.sema_);
    r.plans_ = memalloc::PortPlanner::plan(*r.sema_, r.map_, r.fsms_);
  }

  // hic-lint, stage 2: port-pressure and capacity findings, surfaced here
  // instead of as failures inside the generators.
  if (options_.lint.enabled) {
    perf::ScopedPhase phase(prof, "lint");
    lint_ctx->attach_memory(&r.map_, &r.plans_);
    lint::LintDriver::Summary s =
        lint_driver.run(lint::Stage::PreGenerate, *lint_ctx);
    r.lint_errors_ += static_cast<std::size_t>(s.errors);
    r.lint_warnings_ += static_cast<std::size_t>(s.warnings);
  }

  // hic-bound: abstract-interpretation bounds on occupancy, blocking, and
  // dead ports (docs/ANALYSIS.md). Runs before the lint-only early exit so
  // `--bound --lint-only` composes (the clients need no RTL, only the
  // memory map and port plans). Exceeded bounds surface as bound-* check
  // IDs; like lint findings they do not flip ok().
  if (options_.bound.enabled) {
    perf::ScopedPhase phase(prof, "bound");
    bound::BoundResult br =
        bound::run_bound(r.program_, *r.sema_, r.map_, r.plans_,
                         options_.organization, options_.bound);
    r.bound_errors_ += bound::report_findings(br, *r.sema_, r.diags_);
    if (prof != nullptr) {
      prof->set_count("bound.controllers", br.occupancy.size());
      prof->set_count("bound.endpoints", br.blocking.size());
      prof->set_count("bound.worklist_steps", br.worklist_steps);
      prof->set_count("bound.cycle_scans", br.cycle_scans);
    }
    r.bound_results_.push_back(std::move(br));
  }

  // The lint-only early exit: no controllers are generated.
  if (options_.lint.enabled && options_.lint.only) {
    r.ok_ = true;
    return result;
  }

  // Generate one controller per BRAM and map it.
  fpga::TechMapper mapper;
  for (const memalloc::BramInstance& bram : r.map_.brams()) {
    const memalloc::BramPortPlan* plan = nullptr;
    for (const auto& p : r.plans_) {
      if (p.bram_id == bram.id) plan = &p;
    }
    if (plan == nullptr) continue;

    // hic-bound sizing feedback: drop provably dead dependency-list
    // entries (and pseudo-ports left with no deps) before generating.
    const memalloc::DepListHint* hint = nullptr;
    if (!r.bound_results_.empty()) {
      for (const memalloc::DepListHint& h :
           r.bound_results_.back().sizing_hints) {
        if (h.bram_id == bram.id && !h.dead_deps.empty()) hint = &h;
      }
    }

    {
      perf::ScopedPhase phase(prof, "memorg");
      r.controllers_.push_back(memorg::build_controller(
          r.design_, bram, *plan, {options_.organization, options_.use_cam},
          hint));
    }
    const memorg::GeneratedController& ctrl = r.controllers_.back();
    BramReport report;
    report.bram_id = bram.id;
    report.module_name = ctrl.module->name();
    report.consumers = ctrl.plan.consumer_pseudo_ports();
    report.producers = ctrl.plan.producer_pseudo_ports();
    report.dependencies = static_cast<int>(ctrl.entries.size());
    if (options_.organization == sim::OrgKind::EventDriven) {
      report.slots = std::max(1, memorg::total_slots(ctrl.entries));
    }
    report.pruned_deps = ctrl.pruned_deps;
    report.pruned_ports = ctrl.pruned_ports;
    {
      perf::ScopedPhase phase(prof, "techmap");
      report.area = mapper.map(*ctrl.module);
    }
    {
      perf::ScopedPhase phase(prof, "timing");
      report.timing = fpga::estimate_timing(report.area,
                                            /*launches_from_bram=*/false);
    }
    r.bram_reports_.push_back(std::move(report));
  }
  if (prof != nullptr) {
    std::uint64_t nets = 0;
    for (const auto& module : r.design_.modules()) nets += module->nets().size();
    prof->set_count("netlist.modules", r.design_.modules().size());
    prof->set_count("netlist.nets", nets);
    fpga::MapResult total = r.total_overhead();
    prof->set_count("netlist.luts", static_cast<std::uint64_t>(total.luts));
    prof->set_count("netlist.ffs", static_cast<std::uint64_t>(total.ffs));
  }

  // hic-nlint: structural checks over the controllers just generated, with
  // each module's census expectations taken from its own BramReport (so
  // the netlist is held to the same numbers the area model and any
  // DepListHint pruning reported). Findings surface as nlint-* check IDs;
  // like lint and bound findings they do not flip ok().
  if (options_.nlint.enabled) {
    perf::ScopedPhase phase(prof, "nlint");
    std::map<std::string, nlint::Expectations> expectations;
    for (const BramReport& br : r.bram_reports_) {
      nlint::Expectations e;
      e.org = options_.organization == sim::OrgKind::Arbitrated
                  ? nlint::Expectations::Org::Arbitrated
                  : nlint::Expectations::Org::EventDriven;
      e.ffs = br.area.ffs;
      e.dependencies = br.dependencies;
      e.slots = br.slots;
      e.consumers = br.consumers;
      e.producers = br.producers;
      expectations.emplace(br.module_name, e);
    }
    nlint::NlintResult nr =
        nlint::run_design(r.design_, options_.nlint, {}, expectations);
    r.nlint_errors_ += nlint::report_findings(nr, r.diags_);
    if (prof != nullptr) {
      int claims = 0;
      std::uint64_t facts = 0;
      for (const nlint::ModuleSummary& ms : nr.modules) {
        claims += ms.claims_total;
        facts += ms.facts_derived;
      }
      prof->set_count("nlint.modules", nr.modules.size());
      prof->set_count("nlint.claims", static_cast<std::uint64_t>(claims));
      prof->set_count("nlint.facts", facts);
    }
    r.nlint_result_ = std::move(nr);
  }

  r.ok_ = true;
  return result;
}

std::string render_report(const CompileResult& r) {
  std::string out;
  out += "=== hicsync compilation report ===\n";
  out += support::format("organization: %s\n",
                         sim::to_string(r.options().organization));
  if (!r.ok()) {
    out += "FAILED:\n" + r.diags().str();
    return out;
  }

  out += support::format("threads: %zu\n", r.program().threads.size());
  for (const auto& fsm : r.fsms()) {
    out += support::format(
        "  %-12s %zu states, %zu blocking, %zu producing\n",
        fsm.thread_name().c_str(), fsm.states().size(),
        fsm.blocking_states().size(), fsm.producing_states().size());
  }

  out += support::format("dependencies: %zu\n",
                         r.sema().dependencies().size());
  for (const auto& dep : r.sema().dependencies()) {
    out += "  " + dep.id + ": " + dep.shared_var->qualified_name() + " -> ";
    for (std::size_t i = 0; i < dep.consumers.size(); ++i) {
      if (i != 0) out += ", ";
      out += dep.consumers[i].thread;
    }
    out += support::format(" (dependency number %d)\n",
                           dep.dependency_number());
  }

  for (const std::string& w : r.deadlock_warnings()) {
    out += "WARNING: " + w + "\n";
  }

  out += "memory map:\n" + support::indent(r.memory_map().str(), 2) + "\n";

  out += "controllers:\n";
  for (const BramReport& br : r.bram_reports()) {
    out += support::format(
        "  %s  P/C=%d/%d  LUT %d  FF %d  slices %d  BRAM %d  "
        "Fmax %.1f MHz (%s %.0f MHz target)\n",
        br.module_name.c_str(), br.producers, br.consumers, br.area.luts,
        br.area.ffs, br.area.slices, br.area.bram_blocks,
        br.timing.fmax_mhz,
        br.timing.meets(r.options().target_clock_mhz) ? "meets" : "misses",
        r.options().target_clock_mhz);
  }
  fpga::MapResult total = r.total_overhead();
  out += support::format(
      "total controller overhead: LUT %d  FF %d  slices %d\n", total.luts,
      total.ffs, total.slices);
  return out;
}

}  // namespace hicsync::core
