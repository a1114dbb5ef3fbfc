#include "perf/constraints.h"

#include <cmath>

#include "support/strings.h"

namespace hicsync::perf {

namespace {

std::vector<std::string> sweep(const char* prefix, const char* suffix) {
  std::vector<std::string> keys;
  for (int c : {2, 4, 8}) {
    keys.push_back(std::string(prefix) + std::to_string(c) + suffix);
  }
  return keys;
}

}  // namespace

std::vector<Constraint> paper_constraints() {
  std::vector<Constraint> t;
  // Table 1 — arbitrated area.
  t.push_back({"table1.ff_constant", "table1_arbitrated_area",
               "FF count constant across 2/4/8 consumers (66-FF baseline "
               "architecture)",
               ConstraintKind::EqualAcross, sweep("c", ".ffs"), {}, 0.0});
  t.push_back({"table1.lut_growth", "table1_arbitrated_area",
               "pseudo-port multiplexing adds LUTs only (LUT grows with "
               "consumers)",
               ConstraintKind::StrictlyIncreasing, sweep("c", ".luts"), {},
               0.0});
  t.push_back({"table1.shape_ok", "table1_arbitrated_area",
               "bench's own Table-1 shape verdict", ConstraintKind::FlagTrue,
               {"shape_ok"}, {}, 0.0});
  // Table 2 — event-driven area.
  t.push_back({"table2.ff_constant", "table2_eventdriven_area",
               "FF count constant across 2/4/8 consumers",
               ConstraintKind::EqualAcross, sweep("c", ".ffs"), {}, 0.0});
  t.push_back({"table2.lut_growth", "table2_eventdriven_area",
               "LUT grows with consumers", ConstraintKind::StrictlyIncreasing,
               sweep("c", ".luts"), {}, 0.0});
  t.push_back({"table2.leaner", "table2_eventdriven_area",
               "event-driven leaner than arbitrated at every point",
               ConstraintKind::FlagTrue, {"leaner_than_arbitrated"}, {}, 0.0});
  // §4 timing — the Fmax ladders.
  t.push_back({"fmax.arb_decreasing", "timing_fmax",
               "arbitrated Fmax decreases with consumer count (158/130/~125 "
               "ladder shape)",
               ConstraintKind::StrictlyDecreasing,
               sweep("c", ".arbitrated_fmax_mhz"), {}, 0.0});
  t.push_back({"fmax.ev_decreasing", "timing_fmax",
               "event-driven Fmax decreases with consumer count (177/136/129 "
               "ladder shape)",
               ConstraintKind::StrictlyDecreasing,
               sweep("c", ".eventdriven_fmax_mhz"), {}, 0.0});
  t.push_back({"fmax.ev_faster", "timing_fmax",
               "event-driven faster than arbitrated at every point",
               ConstraintKind::FlagTrue, {"eventdriven_faster_everywhere"}, {},
               0.0});
  t.push_back({"fmax.ev_matches_paper", "timing_fmax",
               "event-driven Fmax within 10% of the paper's 177/136/129 MHz",
               ConstraintKind::WithinPctOfRef,
               sweep("c", ".eventdriven_fmax_mhz"),
               sweep("c", ".paper_eventdriven_mhz"), 10.0});
  // §4 overhead — the 5–20 % band.
  t.push_back({"overhead.in_band", "overhead_vs_core",
               "controller overhead inside the paper's 5-20% band vs the "
               "1000-slice core",
               ConstraintKind::FlagTrue, {"in_paper_band"}, {}, 0.0});
  t.push_back({"overhead.max_in_band", "overhead_vs_core",
               "worst-case overhead does not exceed the paper's 20% bound",
               ConstraintKind::AtMostRef, {"overhead_pct_vs_paper_core_max"},
               {"paper_band_high_pct"}, 0.0});
  // §3 latency / determinism.
  t.push_back({"latency.handoff_correct", "latency_determinism",
               "every consumer observes every produced value",
               ConstraintKind::FlagTrue, {"handoff_correct"}, {}, 0.0});
  t.push_back({"latency.arbitrated_varies", "latency_determinism",
               "arbitrated latency varies round to round under contention "
               "(§3.1 non-determinism)",
               ConstraintKind::FlagTrue, {"arbitrated_latency_varies"}, {},
               0.0});
  // §1/§5 baseline comparison.
  t.push_back({"baseline.all_ok", "baseline_comparison",
               "all four substrates produce correct hand-offs",
               ConstraintKind::FlagTrue, {"all_ok"}, {}, 0.0});
  // §6 dependency-list scaling.
  t.push_back({"deplist.cam_monotonic", "deplist_scaling",
               "CAM LUTs grow monotonically with list size",
               ConstraintKind::FlagTrue, {"cam_lut_monotonic"}, {}, 0.0});
  return t;
}

ConstraintResult check_constraint(const Constraint& c, const BenchRun* run) {
  ConstraintResult r;
  r.constraint = c;
  if (run == nullptr) {
    r.status = ConstraintStatus::MissingData;
    r.detail = "no BENCH report for bench '" + c.bench + "'";
    return r;
  }
  std::vector<double> values;
  for (const std::string& key : c.keys) {
    const double* v = run->metric(key);
    if (v == nullptr) {
      r.status = ConstraintStatus::MissingData;
      r.detail = "metric '" + key + "' absent from the report";
      return r;
    }
    values.push_back(*v);
  }
  std::vector<double> refs;
  for (const std::string& key : c.ref_keys) {
    const double* v = run->metric(key);
    if (v == nullptr) {
      r.status = ConstraintStatus::MissingData;
      r.detail = "metric '" + key + "' absent from the report";
      return r;
    }
    refs.push_back(*v);
  }

  auto values_str = [&]() {
    std::string s;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) s += ", ";
      s += support::format("%s=%.4g", c.keys[i].c_str(), values[i]);
    }
    return s;
  };

  bool ok = true;
  switch (c.kind) {
    case ConstraintKind::FlagTrue:
      ok = values[0] != 0.0;
      break;
    case ConstraintKind::EqualAcross:
      for (double v : values) ok &= v == values[0];
      break;
    case ConstraintKind::StrictlyIncreasing:
      for (std::size_t i = 1; i < values.size(); ++i) {
        ok &= values[i] > values[i - 1];
      }
      break;
    case ConstraintKind::StrictlyDecreasing:
      for (std::size_t i = 1; i < values.size(); ++i) {
        ok &= values[i] < values[i - 1];
      }
      break;
    case ConstraintKind::WithinPctOfRef:
      for (std::size_t i = 0; i < values.size(); ++i) {
        const double band = c.tolerance_pct / 100.0 * std::fabs(refs[i]);
        ok &= std::fabs(values[i] - refs[i]) <= band;
      }
      break;
    case ConstraintKind::AtMostRef: {
      const double slack = c.tolerance_pct / 100.0 * std::fabs(refs[0]);
      ok = values[0] <= refs[0] + slack;
      break;
    }
  }
  r.status = ok ? ConstraintStatus::Pass : ConstraintStatus::Fail;
  r.detail = values_str();
  return r;
}

std::vector<ConstraintResult> check_constraints(
    const BenchRuns& runs, const std::vector<Constraint>& constraints) {
  std::vector<ConstraintResult> results;
  results.reserve(constraints.size());
  for (const Constraint& c : constraints) {
    auto it = runs.find(c.bench);
    results.push_back(
        check_constraint(c, it == runs.end() ? nullptr : &it->second));
  }
  return results;
}

}  // namespace hicsync::perf
