#include "diffview/delta.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "support/json.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace hicsync::diffview {

namespace {

constexpr double kEps = 1e-9;

/// Ordered metric -> value view of one side, so sections can be built from
/// the union of both sides' keys with absences reading as 0.
using ValueMap = std::map<std::string, double>;

void add_union_rows(DeltaSection* section, const ValueMap& a,
                    const ValueMap& b, bool is_int) {
  std::set<std::string> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);
  for (const std::string& k : keys) {
    DeltaRow row;
    row.name = k;
    row.a = a.count(k) ? a.at(k) : 0.0;
    row.b = b.count(k) ? b.at(k) : 0.0;
    row.is_int = is_int;
    section->rows.push_back(std::move(row));
  }
}

double number_at(const support::JsonValue& obj, std::string_view key) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number_value : 0.0;
}

/// Per-port utilization % keyed by port name.
ValueMap port_utilization(const support::JsonValue& metrics) {
  ValueMap out;
  const support::JsonValue* ports = metrics.find("ports");
  if (ports == nullptr || !ports->is_array()) return out;
  for (const support::JsonValue& p : ports->elements) {
    const support::JsonValue* name = p.find("port");
    if (name == nullptr || !name->is_string()) continue;
    out[name->string_value] = number_at(p, "utilization_pct");
  }
  return out;
}

/// "stall.<cause>" counters from the registry, keyed by cause.
ValueMap stall_attribution(const support::JsonValue& metrics) {
  ValueMap out;
  const support::JsonValue* reg = metrics.find("registry");
  const support::JsonValue* counters =
      reg != nullptr ? reg->find("counters") : nullptr;
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, v] : counters->members) {
    if (name.rfind("stall.", 0) == 0 && v.is_number()) {
      out[name.substr(6)] = v.number_value;
    }
  }
  return out;
}

ValueMap controller_occupancy(const support::JsonValue& metrics) {
  ValueMap out;
  const support::JsonValue* occ = metrics.find("occupancy_pct");
  if (occ == nullptr || !occ->is_object()) return out;
  for (const auto& [name, v] : occ->members) {
    if (v.is_number()) out[name] = v.number_value;
  }
  return out;
}

std::vector<std::uint64_t> u64_array(const support::JsonValue& obj,
                                     std::string_view key) {
  std::vector<std::uint64_t> out;
  const support::JsonValue* arr = obj.find(key);
  if (arr == nullptr || !arr->is_array()) return out;
  for (const support::JsonValue& v : arr->elements) {
    if (v.is_number()) out.push_back(static_cast<std::uint64_t>(v.number_value));
  }
  return out;
}

/// Reconstructs the registry's round-latency histograms (dep id -> hist).
std::map<std::string, trace::Histogram> round_histograms(
    const support::JsonValue& metrics) {
  std::map<std::string, trace::Histogram> out;
  const support::JsonValue* reg = metrics.find("registry");
  const support::JsonValue* hists =
      reg != nullptr ? reg->find("histograms") : nullptr;
  if (hists == nullptr || !hists->is_object()) return out;
  constexpr std::string_view kPrefix = "dep.";
  constexpr std::string_view kSuffix = ".round_latency";
  for (const auto& [name, v] : hists->members) {
    if (!v.is_object()) continue;
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
        0) {
      continue;
    }
    std::vector<std::uint64_t> bounds = u64_array(v, "bounds");
    if (bounds.empty()) continue;  // pre-bounds snapshot; nothing to rebuild
    const std::string dep =
        name.substr(kPrefix.size(),
                    name.size() - kPrefix.size() - kSuffix.size());
    out.emplace(dep,
                trace::Histogram::from_snapshot(
                    std::move(bounds), u64_array(v, "buckets"),
                    static_cast<std::uint64_t>(number_at(v, "min")),
                    static_cast<std::uint64_t>(number_at(v, "max")),
                    static_cast<std::uint64_t>(number_at(v, "sum"))));
  }
  return out;
}

ValueMap latency_percentiles(const support::JsonValue& metrics) {
  ValueMap out;
  std::map<std::string, trace::Histogram> hists = round_histograms(metrics);
  std::optional<trace::Histogram> merged;
  for (const auto& [dep, h] : hists) {
    out[dep + " p50"] = static_cast<double>(h.percentile(50));
    out[dep + " p95"] = static_cast<double>(h.percentile(95));
    out[dep + " p99"] = static_cast<double>(h.percentile(99));
    if (!merged) {
      merged.emplace(h.bounds());
    }
    merged->merge(h);
  }
  if (merged && hists.size() > 1) {
    out["all-deps p50"] = static_cast<double>(merged->percentile(50));
    out["all-deps p95"] = static_cast<double>(merged->percentile(95));
    out["all-deps p99"] = static_cast<double>(merged->percentile(99));
  }
  return out;
}

ValueMap coverage_pcts(const Bundle& bundle) {
  ValueMap out;
  if (!bundle.has_coverage) return out;
  for (const cover::Covergroup* g : bundle.coverage.groups()) {
    out[g->name()] = g->coverage_pct();
  }
  out["(total)"] = bundle.coverage.coverage_pct();
  return out;
}

/// "group / bin" identifiers of every declared bin.
std::set<std::string> coverage_bins(const Bundle& bundle) {
  std::set<std::string> out;
  if (!bundle.has_coverage) return out;
  for (const cover::Covergroup* g : bundle.coverage.groups()) {
    for (const cover::CoverBin& b : g->bins()) {
      out.insert(g->name() + " / " + b.name);
    }
  }
  return out;
}

ValueMap area_values(const Manifest& m) {
  ValueMap out;
  for (const AreaRow& a : m.areas) {
    const std::string base = support::format("bram%d ", a.bram_id);
    out[base + "luts"] = a.luts;
    out[base + "ffs"] = a.ffs;
    out[base + "slices"] = a.slices;
    out[base + "fmax_mhz"] = a.fmax_mhz;
  }
  return out;
}

std::string render_value(double v, bool is_int) {
  if (is_int) {
    return support::format("%lld", static_cast<long long>(std::llround(v)));
  }
  return support::format("%.3f", v);
}

std::string render_delta(double d, bool is_int) {
  if (std::fabs(d) <= kEps) return "0";
  std::string s = render_value(d, is_int);
  if (d > 0 && !s.empty() && s[0] != '+') s.insert(s.begin(), '+');
  return s;
}

std::string manifest_line(const char* label, const Manifest& m) {
  return support::format(
      "%s %s  program=%s digest=%s org=%s cycles=%llu converged=%s\n", label,
      m.run_id.empty() ? "(unnamed)" : m.run_id.c_str(), m.program.c_str(),
      m.source_digest.c_str(), m.organization.c_str(),
      static_cast<unsigned long long>(m.cycles), m.converged ? "yes" : "no");
}

}  // namespace

bool DeltaRow::differs() const { return std::fabs(b - a) > kEps; }

DiffReport diff_bundles(const Bundle& a, const Bundle& b,
                        const AlignOptions& options) {
  DiffReport r;
  r.manifest_a = a.manifest;
  r.manifest_b = b.manifest;
  r.align = align(a.events, b.events, options);

  auto section = [&](std::string title, const ValueMap& va, const ValueMap& vb,
                     bool is_int) {
    DeltaSection s;
    s.title = std::move(title);
    add_union_rows(&s, va, vb, is_int);
    if (!s.rows.empty()) r.sections.push_back(std::move(s));
  };

  section("Run",
          {{"cycles", static_cast<double>(a.manifest.cycles)},
           {"converged", a.manifest.converged ? 1.0 : 0.0}},
          {{"cycles", static_cast<double>(b.manifest.cycles)},
           {"converged", b.manifest.converged ? 1.0 : 0.0}},
          /*is_int=*/true);
  section("Per-port utilization (%)", port_utilization(a.metrics),
          port_utilization(b.metrics), /*is_int=*/false);
  section("Stall-cause attribution (stall events)",
          stall_attribution(a.metrics), stall_attribution(b.metrics),
          /*is_int=*/true);
  section("Round latency (cycles)", latency_percentiles(a.metrics),
          latency_percentiles(b.metrics), /*is_int=*/true);
  section("Controller occupancy (%)", controller_occupancy(a.metrics),
          controller_occupancy(b.metrics), /*is_int=*/false);
  section("Coverage (%)", coverage_pcts(a), coverage_pcts(b),
          /*is_int=*/false);
  section("Area / Fmax model", area_values(a.manifest),
          area_values(b.manifest), /*is_int=*/false);

  const std::set<std::string> bins_a = coverage_bins(a);
  const std::set<std::string> bins_b = coverage_bins(b);
  std::set_difference(bins_a.begin(), bins_a.end(), bins_b.begin(),
                      bins_b.end(), std::back_inserter(r.cover_only_a));
  std::set_difference(bins_b.begin(), bins_b.end(), bins_a.begin(),
                      bins_a.end(), std::back_inserter(r.cover_only_b));

  for (const DeltaSection& s : r.sections) {
    for (const DeltaRow& row : s.rows) {
      if (row.differs()) r.metric_deltas = true;
    }
  }
  if (!r.cover_only_a.empty() || !r.cover_only_b.empty()) {
    r.metric_deltas = true;
  }
  return r;
}

std::string DiffReport::text() const {
  std::string out = "=== hic-diff ===\n";
  out += manifest_line("run A:", manifest_a);
  out += manifest_line("run B:", manifest_b);
  out += align.forensics_text();
  for (const DeltaSection& s : sections) {
    out += s.title + ":\n";
    out += support::format("  %-28s %14s %14s %12s\n", "metric", "A", "B",
                           "delta");
    for (const DeltaRow& row : s.rows) {
      out += support::format("  %-28s %14s %14s %12s\n", row.name.c_str(),
                             render_value(row.a, row.is_int).c_str(),
                             render_value(row.b, row.is_int).c_str(),
                             render_delta(row.delta(), row.is_int).c_str());
    }
  }
  if (!cover_only_a.empty() || !cover_only_b.empty()) {
    out += "coverage bins present in exactly one run:\n";
    for (const std::string& bin : cover_only_a) out += "  only A: " + bin + "\n";
    for (const std::string& bin : cover_only_b) out += "  only B: " + bin + "\n";
  }
  out += support::format(
      "verdict: %s (exit %d)\n",
      trace_diverged() ? "TRACE DIVERGENCE"
                       : (metric_deltas ? "metric deltas only" : "equal"),
      exit_code());
  return out;
}

std::string DiffReport::markdown() const {
  std::string out = "## Cross-run diff: " +
                    (manifest_a.run_id.empty() ? "A" : manifest_a.run_id) +
                    " vs " +
                    (manifest_b.run_id.empty() ? "B" : manifest_b.run_id) +
                    "\n\n";
  out += "| run | program | digest | organization | cycles | converged |\n";
  out += "|---|---|---|---|---:|---|\n";
  for (const auto* m : {&manifest_a, &manifest_b}) {
    out += support::format(
        "| %s | %s | `%s` | %s | %llu | %s |\n",
        m == &manifest_a ? "A" : "B", m->program.c_str(),
        m->source_digest.c_str(), m->organization.c_str(),
        static_cast<unsigned long long>(m->cycles),
        m->converged ? "yes" : "no");
  }
  out += "\n### Trace alignment\n\n";
  if (align.equivalent) {
    out += support::format(
        "Semantically equivalent: %zu streams, %zu entries matched.\n",
        align.streams_compared, align.entries_matched);
  } else {
    out += "```\n" + align.forensics_text() + "```\n";
  }
  if (!align.skews.empty()) {
    out += "\n| stream | matched | last skew | max \\|skew\\| |\n";
    out += "|---|---:|---:|---:|\n";
    for (const StreamSkew& s : align.skews) {
      out += support::format("| %s | %zu | %lld | %lld |\n", s.stream.c_str(),
                             s.matched, static_cast<long long>(s.last_skew),
                             static_cast<long long>(s.max_abs_skew));
    }
  }
  for (const DeltaSection& s : sections) {
    out += "\n### " + s.title + "\n\n";
    out += "| metric | A | B | Δ |\n|---|---:|---:|---:|\n";
    for (const DeltaRow& row : s.rows) {
      out += support::format("| %s | %s | %s | %s |\n", row.name.c_str(),
                             render_value(row.a, row.is_int).c_str(),
                             render_value(row.b, row.is_int).c_str(),
                             render_delta(row.delta(), row.is_int).c_str());
    }
  }
  if (!cover_only_a.empty() || !cover_only_b.empty()) {
    out += "\n### Coverage bins present in exactly one run\n\n";
    for (const std::string& bin : cover_only_a) {
      out += "- only A: " + bin + "\n";
    }
    for (const std::string& bin : cover_only_b) {
      out += "- only B: " + bin + "\n";
    }
  }
  out += support::format(
      "\n**Verdict:** %s (exit %d)\n",
      trace_diverged() ? "trace divergence"
                       : (metric_deltas ? "metric deltas only" : "equal"),
      exit_code());
  return out;
}

std::string DiffReport::json() const {
  support::JsonWriter w(/*indent=*/2);
  w.begin_object();
  w.key("manifest_a").raw(manifest_a.to_json());
  w.key("manifest_b").raw(manifest_b.to_json());
  w.key("alignment").raw(align.json());
  w.key("sections").begin_array();
  for (const DeltaSection& s : sections) {
    w.begin_object();
    w.key("title").value(s.title);
    w.key("rows").begin_array();
    for (const DeltaRow& row : s.rows) {
      w.begin_object();
      w.key("name").value(row.name);
      w.key("a").value(row.a);
      w.key("b").value(row.b);
      w.key("delta").value(row.delta());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("cover_only_a").begin_array();
  for (const std::string& bin : cover_only_a) w.value(bin);
  w.end_array();
  w.key("cover_only_b").begin_array();
  for (const std::string& bin : cover_only_b) w.value(bin);
  w.end_array();
  w.key("trace_diverged").value(trace_diverged());
  w.key("metric_deltas").value(metric_deltas);
  w.key("exit_code").value(exit_code());
  w.end_object();
  return w.str();
}

}  // namespace hicsync::diffview
