#include "rt/workload.h"

#include <algorithm>
#include <set>

#include "memalloc/sizing.h"
#include "rt/artifact.h"
#include "support/strings.h"

namespace hicsync::rt {

namespace {

void collect_calls(const std::vector<hic::StmtPtr>& body,
                   std::set<std::string>* out);

void collect_calls(const hic::Expr* e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind == hic::ExprKind::Call) out->insert(e->name);
  for (const hic::ExprPtr& op : e->operands) collect_calls(op.get(), out);
}

void collect_calls(const hic::Stmt& s, std::set<std::string>* out) {
  collect_calls(s.target.get(), out);
  collect_calls(s.value.get(), out);
  collect_calls(s.cond.get(), out);
  collect_calls(s.then_body, out);
  collect_calls(s.else_body, out);
  collect_calls(s.body, out);
  for (const hic::CaseArm& arm : s.arms) collect_calls(arm.body, out);
  if (s.init) collect_calls(*s.init, out);
  if (s.step) collect_calls(*s.step, out);
}

void collect_calls(const std::vector<hic::StmtPtr>& body,
                   std::set<std::string>* out) {
  for (const hic::StmtPtr& s : body) {
    if (s) collect_calls(*s, out);
  }
}

}  // namespace

std::uint64_t fold_seed(std::uint64_t seed, const std::uint64_t* words,
                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    seed ^= words[i] + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
    seed *= 1099511628211ull;
  }
  return seed;
}

std::vector<std::string> extern_calls(const hic::Program& program) {
  std::set<std::string> names;
  for (const hic::ThreadDecl& t : program.threads) {
    collect_calls(t.body, &names);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

void seed_externs(sim::SystemSim& sim, const hic::Program& program,
                  std::uint64_t seed) {
  for (const std::string& name : extern_calls(program)) {
    std::uint64_t base =
        support::fnv1a64(name) ^ (seed * 0x9e3779b97f4a7c15ull);
    sim.externs().register_fn(
        name, [base](const std::vector<std::uint64_t>& args) {
          std::uint64_t h = base;
          for (std::uint64_t a : args) {
            h ^= a + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            h *= 1099511628211ull;
          }
          return h;
        });
  }
}

WorkloadResult run_workload(sim::SystemSim& sim, const hic::Program& program,
                            const hic::Sema& sema, int passes,
                            std::uint64_t max_cycles, std::uint64_t seed) {
  sim.reset();
  sim.externs().clear();
  seed_externs(sim, program, seed);

  WorkloadResult result;
  result.converged = sim.run_until_passes(passes, max_cycles);
  result.cycles = sim.cycle();
  result.rounds = sim.rounds().size();

  // Program-thread then declaration order, so two runs' register lists
  // compare element-wise.
  for (const hic::ThreadDecl& t : program.threads) {
    const hic::SymbolTable* table = sema.thread_table(t.name);
    if (table == nullptr) continue;
    for (const hic::Symbol* sym : table->symbols()) {
      if (memalloc::is_memory_resident(*sym)) continue;
      result.registers.emplace_back(sym->qualified_name(),
                                    sim.register_value(t.name, sym->name()));
    }
  }
  return result;
}

}  // namespace hicsync::rt
