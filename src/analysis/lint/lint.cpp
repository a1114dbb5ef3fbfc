#include "analysis/lint/lint.h"

#include <algorithm>
#include <deque>

#include "analysis/lint/checks.h"

namespace hicsync::analysis::lint {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::PostSema:
      return "post-sema";
    case Stage::PreGenerate:
      return "pre-generate";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// LintContext
// ---------------------------------------------------------------------------

LintContext::LintContext(const hic::Program& program, const hic::Sema& sema,
                         const ThreadDepGraph& depgraph)
    : program_(program), sema_(sema), depgraph_(depgraph) {
  cfgs_.reserve(program.threads.size());
  for (const hic::ThreadDecl& t : program.threads) {
    cfgs_.push_back(Cfg::build(t));
  }
  accesses_.reserve(cfgs_.size());
  for (const Cfg& cfg : cfgs_) accesses_.push_back(collect_accesses(cfg));
}

const Cfg* LintContext::cfg(const std::string& thread) const {
  for (const Cfg& c : cfgs_) {
    if (c.thread_name() == thread) return &c;
  }
  return nullptr;
}

const std::vector<Access>* LintContext::accesses(
    const std::string& thread) const {
  for (std::size_t i = 0; i < cfgs_.size(); ++i) {
    if (cfgs_[i].thread_name() == thread) return &accesses_[i];
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// LintRegistry
// ---------------------------------------------------------------------------

const LintRegistry& LintRegistry::builtin() {
  static const LintRegistry* registry = [] {
    auto* r = new LintRegistry;
    r->register_pass(make_race_unsynced_access_check());
    r->register_pass(make_consume_before_produce_check());
    r->register_pass(make_duplicate_producer_write_check());
    r->register_pass(make_unreachable_stmt_check());
    r->register_pass(make_dead_shared_variable_check());
    r->register_pass(make_port_pressure_check());
    r->register_pass(make_pragma_consumer_order_check());
    return r;
  }();
  return *registry;
}

void LintRegistry::register_pass(std::unique_ptr<LintPass> pass) {
  passes_.push_back(std::move(pass));
}

const LintPass* LintRegistry::find(std::string_view id) const {
  for (const auto& p : passes_) {
    if (id == p->info().id) return p.get();
  }
  return nullptr;
}

std::vector<CheckInfo> LintRegistry::check_infos() const {
  std::vector<CheckInfo> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.push_back(p->info());
  return out;
}

// ---------------------------------------------------------------------------
// LintDriver
// ---------------------------------------------------------------------------

std::optional<support::Severity> LintDriver::resolved_severity(
    const CheckInfo& check) const {
  auto listed = [&](const std::vector<std::string>& ids) {
    return std::find(ids.begin(), ids.end(), check.id) != ids.end();
  };
  if (listed(options_.disabled)) return std::nullopt;
  support::Severity sev = check.default_severity;
  if (listed(options_.as_error)) sev = support::Severity::Error;
  if (options_.werror && sev == support::Severity::Warning) {
    sev = support::Severity::Error;
  }
  return sev;
}

LintDriver::Summary LintDriver::run(Stage stage, const LintContext& ctx) const {
  Summary summary;
  for (const auto& pass : registry_.passes()) {
    const CheckInfo& info = pass->info();
    if (info.stage != stage) continue;
    auto severity = resolved_severity(info);
    if (!severity.has_value()) continue;
    pass->run(ctx, [&](support::SourceLoc loc, std::string message) {
      diags_.report(*severity, loc, std::move(message), info.id);
      switch (*severity) {
        case support::Severity::Error:
          ++summary.errors;
          break;
        case support::Severity::Warning:
          ++summary.warnings;
          break;
        case support::Severity::Note:
          ++summary.notes;
          break;
      }
    });
  }
  return summary;
}

// ---------------------------------------------------------------------------
// CFG helpers
// ---------------------------------------------------------------------------

int stmt_node(const Cfg& cfg, const hic::Stmt* stmt) {
  for (const CfgNode& n : cfg.nodes()) {
    if (n.stmt == stmt) return n.id;
  }
  return -1;
}

std::vector<char> reachable_from(const Cfg& cfg, int from) {
  std::vector<char> seen(cfg.nodes().size(), 0);
  if (from < 0) return seen;
  std::deque<int> work{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!work.empty()) {
    int u = work.front();
    work.pop_front();
    for (int v : cfg.node(u).succs) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        work.push_back(v);
      }
    }
  }
  return seen;
}

std::vector<int> shortest_path(const Cfg& cfg, int from, int to) {
  if (from < 0 || to < 0) return {};
  std::vector<int> parent(cfg.nodes().size(), -1);
  std::vector<char> seen(cfg.nodes().size(), 0);
  std::deque<int> work{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!work.empty()) {
    int u = work.front();
    work.pop_front();
    if (u == to) break;
    for (int v : cfg.node(u).succs) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        parent[static_cast<std::size_t>(v)] = u;
        work.push_back(v);
      }
    }
  }
  if (!seen[static_cast<std::size_t>(to)]) return {};
  std::vector<int> path;
  for (int n = to; n != -1; n = parent[static_cast<std::size_t>(n)]) {
    path.push_back(n);
    if (n == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != from) return {};
  return path;
}

}  // namespace hicsync::analysis::lint
