// bench_e2e — the end-to-end benchmark of hicsync's three paths, measured
// from outside the program and broken down by layer.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--examples DIR] [--out-dir DIR]
//
// Paths and workloads (README.md says why each exists):
//   compile  .hic source -> generated controllers:  compile-corpus,
//            compile-analyses
//   simulate simulator cycles -> a finished run:     sim-arb8, sim-ed32
//   serve    hic-rtd request -> response:            rt-fig1
//
// A run sets the system up, checks the set-up's outputs untimed, then runs
// the workload's operation back to back in a closed loop for `--seconds`,
// checking every operation's output. `--trace 0` sets the system up again
// before every 0.1 s of the loop (`setup_s` comes from these set-ups) and
// reports the end-to-end metrics; `--trace 1` alternates
// untraced and traced slices of the loop (the difference in median op cost
// is `trace_overhead_pct`), then probes the paths the loop does not exercise
// on the workload's primary design, and reports the per-layer metrics.
//
// The process pins itself, and so every thread it starts, to the core it
// starts on. Its gated op cost, `op_kcycles_floor`, adds up the cheapest run
// of each part of an op (a compile, a block of cycles, a transaction) in
// core cycles: process CPU time at the clock measured alongside. On a
// shared host, wall time also counts the time other guests and processes
// hold the core, hand-offs between threads on different cores wait for an
// idle core to wake, the host moves the core's clock, and another guest on
// the core's other hyperthread slows every instruction while it runs; all
// of these vary from run to run. CPU and wall-clock throughput and latency
// are reported with the per-layer metrics.
//
// Every metric is printed as `name value unit`; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The run also
// writes BENCH_e2e_<workload>[_traced].json (hic-report ingests it) and,
// traced, TRACE_e2e_<workload>.jsonl (the bench's own spans) to --out-dir.
// Exit 0 when every check passed, 1 when one failed, 2 on usage errors.
//
// The layers are timed only through public surfaces: calls into public
// functions, CompileOptions::profiler (the PassTimer phases),
// ServiceOptions::telemetry, and a trace::MetricsSink on the SystemSim
// trace bus.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "bench_util.h"
#include "core/compiler.h"
#include "hic/type.h"
#include "netapp/scenarios.h"
#include "perf/profile.h"
#include "rt/artifact.h"
#include "rt/service.h"
#include "rt/store.h"
#include "rt/wire.h"
#include "rt/workload.h"
#include "rtl/eval.h"
#include "support/json.h"
#include "support/rng.h"
#include "trace/bus.h"
#include "trace/metrics.h"

using namespace hicsync;

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of every thread of the process so far, in seconds. Steal time
/// (the host running another guest on this core) is not counted.
double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

volatile std::uint64_t g_clock_probe_sink = 1;  // keeps the probe's chain

/// The core's clock in GHz, from the process CPU time of a chain of mix64
/// calls. Each call is 13 cycles of dependent latency on x86-64: an add,
/// two 3-cycle multiplies and three shift-xor pairs. Median of 3 rounds of
/// about 60 us.
double core_ghz() {
  constexpr int kCalls = 10000;
  constexpr double kCyclesPerCall = 13.0;
  std::vector<double> ghz;
  std::uint64_t x = g_clock_probe_sink;
  for (int round = 0; round < 3; ++round) {
    const double c0 = cpu_seconds();
    for (int i = 0; i < kCalls; ++i) x = mix64(x);
    ghz.push_back(kCalls * kCyclesPerCall / ((cpu_seconds() - c0) * 1e9));
  }
  g_clock_probe_sink = x;
  return median(ghz);
}

// ---------------------------------------------------------------- metrics

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every workload reports untraced (BENCHMARK.json
/// lists the same names, units and directions). What one "op" is depends
/// on the workload: a corpus pass, a simulated cycle or a transaction.
const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"op_kcycles_floor", "kcycles"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"fmax_mhz_geomean", "MHz"}, {"luts_total", "count"},
      {"ffs_total", "count"},      {"handoff_mhz", "MHz"},
  };
  return specs;
}

const char* const kCompilePhases[][2] = {
    {"parse", "hic.parse_ms"},     {"sema", "hic.sema_ms"},
    {"deadlock", "analysis.deadlock_ms"},
    {"synth", "synth.ms"},         {"memalloc", "memalloc.ms"},
    {"memorg", "memorg.gen_ms"},   {"techmap", "fpga.techmap_ms"},
    {"timing", "fpga.timing_ms"},  {"lint", "lint.ms"},
    {"bound", "bound.ms"},         {"nlint", "nlint.ms"},
};
const char* const kCompileCounts[][2] = {
    {"bound.worklist_steps", "bound.worklist_steps"},
    {"netlist.nets", "memorg.nets"},
    {"nlint.facts", "nlint.facts"},
};
const char* const kStallCauses[] = {"arbitration", "dependency", "slot",
                                    "port_a", "data"};
const char* const kRtOps[] = {"open", "produce", "run", "consume", "close"};
constexpr int kScenarioConsumers[] = {2, 4, 8};

/// The per-layer metrics every workload reports traced, named after the
/// src/ module they time.
const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    for (const auto& phase : kCompilePhases) s.push_back({phase[1], "ms"});
    s.push_back({"compile.unaccounted_pct", "%"});
    for (const auto& count : kCompileCounts) s.push_back({count[1], "count"});
    for (const char* org : {"arb", "ed"}) {
      for (int n : kScenarioConsumers) {
        const std::string p = std::string("fpga.") + org + std::to_string(n);
        s.push_back({p + ".fmax_mhz", "MHz"});
        s.push_back({p + ".luts", "count"});
        s.push_back({p + ".ffs", "count"});
        s.push_back({p + ".logic_levels", "count"});
      }
    }
    s.push_back({"sim.setup_ms", "ms"});
    s.push_back({"sim.step_ns_p50", "ns"});
    s.push_back({"rtl.settle_step_ns", "ns"});
    s.push_back({"sim.thread_ns", "ns"});
    s.push_back({"rtl.share_pct", "%"});
    s.push_back({"sim.round_latency_cycles", "cycles"});
    for (const char* cause : kStallCauses) {
      s.push_back({std::string("memorg.stall_cycles_per_round.") + cause,
                   "cycles"});
    }
    s.push_back({"memorg.port_util_pct", "%"});
    for (const char* op : kRtOps) {
      s.push_back({std::string("rt.rtt_us_p50.") + op, "us"});
    }
    s.push_back({"rt.txn_us_p50.pass1", "us"});
    s.push_back({"rt.txn_us_p50.pass16", "us"});
    s.push_back({"rt.service_run_us_p50", "us"});
    s.push_back({"rt.execute_us_p50", "us"});
    s.push_back({"rt.queue_complete_us", "us"});
    s.push_back({"rt.wire_us", "us"});
    for (const char* stage : {"queue", "execute", "complete"}) {
      s.push_back({std::string("rt.telemetry.") + stage + "_us_mean", "us"});
    }
    s.push_back({"loop.ops_per_cpu_s", "1/s"});
    s.push_back({"loop.op_kcycles_p50", "kcycles"});
    s.push_back({"loop.op_cpu_us_p50", "us"});
    s.push_back({"loop.ops_per_s", "1/s"});
    s.push_back({"loop.op_us_p50", "us"});
    s.push_back({"loop.op_us_p90", "us"});
    s.push_back({"trace_overhead_pct", "%"});
    return s;
  }();
  return specs;
}

using Metrics = std::map<std::string, double>;

// ------------------------------------------------------------------ spans

/// The bench's own spans, kept in memory and written as JSONL at exit. A
/// parent's id is reserved before its children are recorded.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t reserve() { return next_id_.fetch_add(1); }

  void add(std::uint64_t id, std::string name, Clock::time_point start,
           Clock::time_point end, std::uint64_t parent, std::uint64_t txn) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({id, std::move(name), us_between(epoch_, start),
                      us_between(epoch_, end), parent, txn});
  }

  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    for (const Record& r : spans_) {
      support::JsonWriter w(0);
      w.begin_object()
          .key("id").value(r.id)
          .key("name").value(r.name)
          .key("start_us").value(r.start_us)
          .key("end_us").value(r.end_us)
          .key("parent").value(r.parent)
          .key("txn").value(r.txn)
          .end_object();
      out << w.str() << '\n';
    }
    return static_cast<bool>(out);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  struct Record {
    std::uint64_t id;
    std::string name;
    double start_us;
    double end_us;
    std::uint64_t parent;
    std::uint64_t txn;
  };
  static constexpr std::size_t kMaxSpans = 200000;

  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
  std::uint64_t dropped_ = 0;  // guarded by mu_
};

// ------------------------------------------------------------ run context

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string examples = "examples";
  std::string out_dir = ".";
};

/// What every workload shares: options, the span log and the verdict.
struct Context {
  explicit Context(Options o) : opt(std::move(o)) {}

  Options opt;
  SpanLog spans{Clock::now()};
  std::vector<std::string> failures;  // check failures, first few kept

  void fail(const std::string& why) {
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// When a stretch of the closed loop stops: at a deadline (the timed
/// loop) or after a number of operations (the warm-up).
struct Budget {
  Clock::time_point deadline = Clock::time_point::max();
  std::uint64_t max_ops = UINT64_MAX;

  static Budget for_seconds(double seconds) {
    Budget b;
    b.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    return b;
  }
  static Budget for_ops(std::uint64_t ops) {
    Budget b;
    b.max_ops = ops;
    return b;
  }
  [[nodiscard]] bool done(std::uint64_t ops) const {
    return ops >= max_ops || Clock::now() >= deadline;
  }
};

/// A timed part of an op: one compile of a pass, one block of a chunk's
/// cycles, one transaction of a group. Parts of one kind do the same work.
struct Part {
  std::size_t kind;
  double cpu_us;  // process CPU time
};

/// One stretch of the workload's closed loop.
struct Slice {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;           // process CPU time (set by run_clocked)
  std::uint64_t attempted = 0;  // operations started (passes/chunks/txns)
  std::uint64_t failed = 0;
  double work = 0.0;               // ops for the throughputs
  std::vector<double> op_us;       // per-op wall latency samples
  std::vector<double> op_cpu_us;   // per-op process CPU time samples
  std::vector<double> op_kcycles;  // op_cpu_us in core cycles (run_clocked)
  std::vector<Part> parts;         // consumed by run_clocked

  void append(const Slice& o) {
    elapsed_s += o.elapsed_s;
    cpu_s += o.cpu_s;
    attempted += o.attempted;
    failed += o.failed;
    work += o.work;
    op_us.insert(op_us.end(), o.op_us.begin(), o.op_us.end());
    op_cpu_us.insert(op_cpu_us.end(), o.op_cpu_us.begin(), o.op_cpu_us.end());
    op_kcycles.insert(op_kcycles.end(), o.op_kcycles.begin(),
                      o.op_kcycles.end());
  }
};

/// Wall and process CPU time of one operation, recorded per unit of work.
/// Every thread of the process shares one core, so the CPU time spent
/// while the operation runs is the operation's own.
class OpTimer {
 public:
  OpTimer() : wall_(Clock::now()), cpu_(cpu_seconds()) {}

  void record(Slice* s, double units = 1.0) const {
    const double cpu_us = (cpu_seconds() - cpu_) * 1e6;
    s->op_us.push_back(us_between(wall_, Clock::now()) / units);
    s->op_cpu_us.push_back(cpu_us / units);
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Process CPU time of one part.
class PartTimer {
 public:
  PartTimer() : cpu_(cpu_seconds()) {}

  void record(Slice* s, std::size_t kind) const {
    s->parts.push_back({kind, (cpu_seconds() - cpu_) * 1e6});
  }

 private:
  double cpu_;
};

/// The cost, in kcycles, of each kind of part when the host left it alone.
/// Interference from the host (another guest on the core's other
/// hyperthread, a neighbour filling the shared cache) only ever adds
/// cycles, comes and goes within milliseconds, and leaves some parts of
/// well under a millisecond alone; their cost is what the code itself
/// costs, where the median moves with how much of the run the host was
/// busy. Parts come a stretch at a time (all at one clock), and a kind's
/// cost is the cheapest part of its kRank-th cheapest stretch: now and then
/// the clock rises and falls again between two measurements of it, and
/// that stretch's parts read a few percent cheaper than they were.
class PartFloor {
 public:
  static constexpr std::size_t kRank = 3;

  explicit PartFloor(std::size_t kinds)
      : cheapest_(kinds), stretches_(kinds) {}

  /// Adds one stretch's parts, their CPU time taken at `clock` GHz.
  void add_stretch(const std::vector<Part>& parts, double clock) {
    constexpr double kNone = std::numeric_limits<double>::infinity();
    std::vector<double> best(cheapest_.size(), kNone);
    for (const Part& p : parts) {
      best.at(p.kind) = std::min(best.at(p.kind), p.cpu_us * clock);
    }
    for (std::size_t k = 0; k < best.size(); ++k) {
      if (best[k] == kNone) continue;
      ++stretches_[k];
      std::vector<double>& c = cheapest_[k];
      c.insert(std::upper_bound(c.begin(), c.end(), best[k]), best[k]);
      if (c.size() > kRank) c.pop_back();
    }
  }
  /// One part of each kind; infinite until every kind ran in kRank
  /// stretches.
  [[nodiscard]] double sum() const {
    double total = 0.0;
    for (const std::vector<double>& c : cheapest_) {
      total += c.size() < kRank ? std::numeric_limits<double>::infinity()
                                : c.back();
    }
    return total;
  }
  [[nodiscard]] std::uint64_t fewest_stretches() const {
    return stretches_.empty()
               ? 0
               : *std::min_element(stretches_.begin(), stretches_.end());
  }

 private:
  std::vector<std::vector<double>> cheapest_;  // per kind, ascending
  std::vector<std::uint64_t> stretches_;       // per kind
};

/// Properties of the generated hardware, reported as end-to-end metrics.
struct Hardware {
  std::vector<double> controller_fmax_mhz;
  double luts = 0;
  double ffs = 0;
  std::vector<double> handoff_mhz;  // per design: min Fmax / round cycles

  void add_design(const core::CompileResult& r) {
    for (const core::BramReport& b : r.bram_reports()) {
      controller_fmax_mhz.push_back(b.timing.fmax_mhz);
    }
    const fpga::MapResult total = r.total_overhead();
    luts += total.luts;
    ffs += total.ffs;
  }
};

double mean_round_latency(const std::vector<sim::DepRound>& rounds) {
  double sum = 0.0;
  for (const sim::DepRound& r : rounds) {
    sum += static_cast<double>(r.completion_latency());
  }
  return rounds.empty() ? 0.0 : sum / static_cast<double>(rounds.size());
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Releases the last set-up's system (untimed, before every set-up).
  virtual void teardown() = 0;
  /// Builds the system under test from scratch, recording its parts on `s`
  /// (timed for setup_s).
  virtual void setup(Slice* s) = 0;
  /// The kinds of Part setup() records; one of each is a set-up.
  [[nodiscard]] virtual std::size_t setup_part_kinds() const { return 1; }
  /// Untimed checks of the last set-up; records failures on the context.
  virtual void prepare() = 0;
  virtual Slice run_slice(bool traced, const Budget& budget) = 0;
  /// Operations run untimed after prepare(), before peak_rss_mb is read.
  [[nodiscard]] virtual std::uint64_t warm_up_ops() const = 0;
  /// The kinds of Part run_slice records; one part of each kind does the
  /// work of ops_per_part_set() ops.
  [[nodiscard]] virtual std::size_t part_kinds() const = 0;
  [[nodiscard]] virtual double ops_per_part_set() const = 0;
  [[nodiscard]] virtual const Hardware& hardware() const = 0;
  /// Traced runs: fills the per-layer metrics (from the traced slices and
  /// probes on the primary design).
  virtual void layers(Metrics* out) = 0;
};

// ----------------------------------------------------------- compile path

/// PassTimer phases and counts summed over compiles.
struct PhaseTotals {
  std::map<std::string, double> phase_ms;
  std::map<std::string, double> counts;
  double compile_ms = 0.0;  // wall time of the compile() calls
  int passes = 0;           // compile-set passes the totals cover

  void add(const perf::PassTimer& timer, double wall_ms) {
    for (const perf::PassTimer::Phase& p : timer.phases()) {
      phase_ms[p.name] += static_cast<double>(p.wall_ns) / 1e6;
    }
    for (const auto& [name, value] : timer.counts()) {
      counts[name] += static_cast<double>(value);
    }
    compile_ms += wall_ms;
  }
};

std::unique_ptr<core::CompileResult> compile_timed(
    const std::string& source, core::CompileOptions options,
    PhaseTotals* totals) {
  perf::PassTimer timer;
  if (totals != nullptr) options.profiler = &timer;
  const auto t0 = Clock::now();
  auto result = core::Compiler(options).compile(source);
  const auto t1 = Clock::now();
  if (totals != nullptr) totals->add(timer, us_between(t0, t1) / 1e3);
  return result;
}

/// Compile-path layer metrics. `analysis` supplies lint/bound/nlint and
/// their counts when the main totals ran with the analyses off.
void compile_layers(const PhaseTotals& main, const PhaseTotals& analysis,
                    Metrics* out) {
  double phases_sum = 0.0;
  for (const auto& [name, ms] : main.phase_ms) phases_sum += ms;
  for (const auto& phase : kCompilePhases) {
    const bool from_analysis = main.phase_ms.count(phase[0]) == 0 &&
                               analysis.phase_ms.count(phase[0]) != 0;
    const PhaseTotals& src = from_analysis ? analysis : main;
    auto it = src.phase_ms.find(phase[0]);
    (*out)[phase[1]] =
        it == src.phase_ms.end() ? 0.0 : it->second / src.passes;
  }
  (*out)["compile.unaccounted_pct"] =
      100.0 * (main.compile_ms - phases_sum) / main.compile_ms;
  for (const auto& count : kCompileCounts) {
    const PhaseTotals& src =
        main.counts.count(count[0]) != 0 ? main : analysis;
    auto it = src.counts.find(count[0]);
    (*out)[count[1]] = it == src.counts.end() ? 0.0 : it->second / src.passes;
  }
}

core::CompileOptions with_analyses(core::CompileOptions o) {
  o.lint.enabled = true;
  o.bound.enabled = true;
  o.nlint.enabled = true;
  return o;
}

/// Checks one compile: ok() and no error-severity analysis finding.
bool compile_clean(const core::CompileResult& r, std::string* why) {
  if (!r.ok()) {
    *why = r.diags().str();
    return false;
  }
  if (r.lint_error_count() + r.bound_error_count() + r.nlint_error_count() !=
      0) {
    *why = "analysis errors: " + r.diags().str();
    return false;
  }
  return true;
}

struct CompileUnit {
  std::string item;
  std::string source;
  sim::OrgKind org;
};

/// One pass over `units` with lint, bound and nlint on, every compile
/// checked: the analysis phases for totals that ran with them off.
PhaseTotals analysis_probe(const std::vector<CompileUnit>& units,
                           core::CompileOptions options, Context& ctx) {
  PhaseTotals totals;
  const auto t0 = Clock::now();
  for (const CompileUnit& u : units) {
    options.organization = u.org;
    auto r = compile_timed(u.source, with_analyses(options), &totals);
    std::string why;
    if (!compile_clean(*r, &why)) ctx.fail(u.item + ": " + why);
  }
  totals.passes = 1;
  ctx.spans.add(ctx.spans.reserve(), "probe.analysis", t0, Clock::now(), 0, 0);
  return totals;
}

/// Table 1/2 scenario rows (fanout 2/4/8, both organizations).
void scenario_layers(Metrics* out) {
  for (sim::OrgKind org : {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    for (int n : kScenarioConsumers) {
      core::CompileOptions o;
      o.organization = org;
      auto r = core::Compiler(o).compile(netapp::fanout_source(n));
      const std::string p =
          std::string("fpga.") +
          (org == sim::OrgKind::Arbitrated ? "arb" : "ed") + std::to_string(n);
      const fpga::MapResult area = r->total_overhead();
      (*out)[p + ".fmax_mhz"] = r->min_fmax_mhz();
      (*out)[p + ".luts"] = area.luts;
      (*out)[p + ".ffs"] = area.ffs;
      (*out)[p + ".logic_levels"] = area.logic_levels;
    }
  }
}

// -------------------------------------------------------------- sim path

/// Per-step host time (ns) over `cycles` steps of `sim`.
std::vector<double> timed_steps(sim::SystemSim& sim, std::uint64_t cycles) {
  std::vector<double> ns;
  ns.reserve(cycles);
  for (std::uint64_t i = 0; i < cycles; ++i) {
    const auto t0 = Clock::now();
    sim.step();
    const auto t1 = Clock::now();
    ns.push_back(us_between(t0, t1) * 1e3);
  }
  return ns;
}

/// rtl::ModuleSim settle()+step() — what SystemSim::step does to every
/// controller each cycle — in ns, summed over the design's controllers.
double rtl_settle_step_ns(const rtl::Design& design, int iterations) {
  double total = 0.0;
  for (const auto& module : design.modules()) {
    rtl::ModuleSim ms(*module);
    ms.reset();
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (int i = 0; i < iterations; ++i) {
        ms.settle();
        ms.step();
      }
      ns.push_back(us_between(t0, Clock::now()) * 1e3 / iterations);
    }
    total += median(ns);
  }
  return total;
}

/// Modelled sim-layer metrics from a MetricsSink attached for `cycles`
/// cycles of `sim` (reset first, detached after).
void sink_layers(sim::SystemSim& sim, std::uint64_t cycles, Metrics* out) {
  trace::MetricsSink sink;
  trace::TraceBus bus;
  bus.attach(&sink);
  sim.reset();
  sim.set_trace(&bus);
  for (std::uint64_t i = 0; i < cycles; ++i) sim.step();
  bus.finish(sim.cycle());
  sim.set_trace(nullptr);

  const double rounds = static_cast<double>(sim.rounds().size());
  (*out)["sim.round_latency_cycles"] = mean_round_latency(sim.rounds());
  std::uint64_t stalls[5] = {};
  std::vector<double> util;
  for (const trace::PortStats& p : sink.port_stats()) {
    stalls[0] += p.stall_arbitration;
    stalls[1] += p.stall_dependency;
    stalls[2] += p.stall_slot;
    stalls[3] += p.stall_port_a;
    stalls[4] += p.stall_data;
    util.push_back(p.utilization_pct(sink.cycles()));
  }
  for (int i = 0; i < 5; ++i) {
    (*out)[std::string("memorg.stall_cycles_per_round.") + kStallCauses[i]] =
        rounds == 0 ? 0.0 : static_cast<double>(stalls[i]) / rounds;
  }
  (*out)["memorg.port_util_pct"] = mean(util);
}

void step_layers(const std::vector<double>& step_ns, double rtl_ns,
                 Metrics* out) {
  const double step_p50 = median(step_ns);
  (*out)["sim.step_ns_p50"] = step_p50;
  (*out)["rtl.settle_step_ns"] = rtl_ns;
  (*out)["sim.thread_ns"] = step_p50 - rtl_ns;
  (*out)["rtl.share_pct"] = 100.0 * rtl_ns / step_p50;
}

/// The whole sim path probed on one compiled design with seeded externs.
void sim_probe(const core::CompileResult& r, std::uint64_t seed,
               std::uint64_t cycles, Context& ctx, Metrics* out) {
  const auto t0 = Clock::now();
  std::vector<double> setup_ms;
  std::unique_ptr<sim::SystemSim> sim;
  for (int i = 0; i < 3; ++i) {
    const auto s0 = Clock::now();
    sim = r.make_simulator();
    setup_ms.push_back(us_between(s0, Clock::now()) / 1e3);
  }
  (*out)["sim.setup_ms"] = median(setup_ms);
  rt::seed_externs(*sim, r.program(), seed);
  step_layers(timed_steps(*sim, cycles), rtl_settle_step_ns(r.design(), 2000),
              out);
  sink_layers(*sim, cycles, out);
  ctx.spans.add(ctx.spans.reserve(), "probe.sim", t0, Clock::now(), 0, 0);
}

// ------------------------------------------------------------ serve path

/// A served program: rt::Service behind an AF_UNIX RemoteServer, with a
/// connected client. Members are declared in teardown order reversed.
struct ServeStack {
  std::shared_ptr<const rt::LoadedProgram> program;
  std::unique_ptr<rt::Service> service;
  std::unique_ptr<rt::RemoteServer> server;
  rt::RemoteClient client;
};

std::string socket_path(const Context& ctx) {
  static int counter = 0;
  return ctx.opt.out_dir + "/rt-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

/// Artifact emit + load + service + server + client, from a compile.
std::unique_ptr<ServeStack> serve_stack(const core::CompileResult& r,
                                        const std::string& source,
                                        bool telemetry, const Context& ctx) {
  auto stack = std::make_unique<ServeStack>();
  rt::ProgramStore store;
  rt::ArtifactError artifact_error;
  stack->program =
      store.load_bytes(rt::emit_artifact(r, source), &artifact_error);
  if (!stack->program) {
    throw std::runtime_error("artifact load: " + artifact_error.str());
  }
  rt::ServiceOptions options;
  options.shards = 2;
  options.telemetry.enabled = telemetry;
  options.telemetry.slow_threshold_us = 60ULL * 1000 * 1000;
  stack->service = std::make_unique<rt::Service>(stack->program, options);
  stack->server =
      std::make_unique<rt::RemoteServer>(*stack->service, socket_path(ctx));
  std::string error;
  if (!stack->server->start(&error) ||
      !stack->client.connect(stack->server->socket_path(), &error)) {
    throw std::runtime_error(error);
  }
  return stack;
}

constexpr int kPassChoices[] = {1, 4, 16};

/// Transaction inputs: a produce-word pool and the three pass counts, with
/// the fresh-simulator result of every (word, passes) pair.
struct ServeInputs {
  std::vector<std::uint64_t> words;
  std::vector<rt::WorkloadResult> expected;  // [word * 3 + pass index]
  std::vector<double> round_latency;         // per expected run

  void compute(const rt::LoadedProgram& program) {
    expected.clear();
    round_latency.clear();
    for (std::uint64_t word : words) {
      for (int passes : kPassChoices) {
        auto sim = program.make_simulator();
        expected.push_back(run(*sim, program, word, passes));
        round_latency.push_back(mean_round_latency(sim->rounds()));
      }
    }
  }
  [[nodiscard]] const rt::WorkloadResult& expected_for(int word,
                                                     int pass_index) const {
    return expected[static_cast<std::size_t>(word * 3 + pass_index)];
  }
  static rt::WorkloadResult run(sim::SystemSim& sim,
                                const rt::LoadedProgram& program,
                                std::uint64_t word, int passes) {
    return rt::run_workload(sim, program.program(), program.sema(), passes,
                            rt::ServiceOptions{}.max_cycles,
                            rt::fold_seed(rt::kWorkloadSeedInit, &word, 1));
  }
};

/// Traced serve samples.
struct ServeSamples {
  std::vector<double> rtt_us[5];  // per kRtOps
  std::vector<double> txn_pass1_us;
  std::vector<double> txn_pass16_us;
};

/// One `hic-rtd submit`-shaped transaction: open -> produce -> run ->
/// consume -> close. Returns false on any error or a register mismatch.
bool transaction(rt::RemoteClient& client, std::uint64_t word, int pass_index,
                 const rt::WorkloadResult& expected, ServeSamples* samples,
                 SpanLog* spans, std::uint64_t txn) {
  std::string error;
  std::uint64_t session = 0;
  rt::RemoteClient::RunInfo info;
  std::vector<std::pair<std::string, std::uint64_t>> registers;
  const std::uint64_t parent = spans != nullptr ? spans->reserve() : 0;
  Clock::time_point edges[6];
  edges[0] = Clock::now();
  bool ok = client.open_session(&session, &error);
  edges[1] = Clock::now();
  ok = ok && client.produce(session, {word}, &error);
  edges[2] = Clock::now();
  ok = ok && client.run(session, kPassChoices[pass_index], &info, &error);
  edges[3] = Clock::now();
  ok = ok && client.consume(session, {}, &registers, &error);
  edges[4] = Clock::now();
  ok = ok && client.close_session(session, &error);
  edges[5] = Clock::now();
  ok = ok && info.converged && registers == expected.registers;
  if (samples != nullptr) {
    for (int i = 0; i < 5; ++i) {
      samples->rtt_us[i].push_back(us_between(edges[i], edges[i + 1]));
    }
    const double total = us_between(edges[0], edges[5]);
    if (pass_index == 0) samples->txn_pass1_us.push_back(total);
    if (pass_index == 2) samples->txn_pass16_us.push_back(total);
  }
  if (spans != nullptr) {
    for (int i = 0; i < 5; ++i) {
      spans->add(spans->reserve(), kRtOps[i], edges[i], edges[i + 1], parent,
                 txn);
    }
    spans->add(parent, "txn", edges[0], edges[5], 0, txn);
  }
  return ok;
}

/// Weighted mean of one telemetry stage across the service's shards.
double telemetry_stage_mean(const rt::Service& service, const char* stage) {
  support::JsonValue doc;
  if (!support::parse_json(service.telemetry_json(), &doc)) return 0.0;
  const support::JsonValue* shards = doc.find("shards");
  if (shards == nullptr) return 0.0;
  double sum = 0.0;
  double count = 0.0;
  for (const support::JsonValue& shard : shards->elements) {
    const support::JsonValue* stages = shard.find("stages");
    const support::JsonValue* s =
        stages != nullptr ? stages->find(stage) : nullptr;
    const support::JsonValue* n = s != nullptr ? s->find("count") : nullptr;
    const support::JsonValue* m = s != nullptr ? s->find("mean") : nullptr;
    if (n == nullptr || m == nullptr) continue;
    sum += n->number_value * m->number_value;
    count += n->number_value;
  }
  return count == 0 ? 0.0 : sum / count;
}

/// Serve-path layer metrics. `samples` are the traced client samples; the
/// in-process Service::run and rt::run_workload timings are taken here on
/// `draws` (word index, pass index) inputs.
void serve_layers(ServeStack& stack, const ServeInputs& inputs,
                  const ServeSamples& samples,
                  const std::vector<std::pair<int, int>>& draws, Context& ctx,
                  Metrics* out) {
  const auto t0 = Clock::now();
  rt::Service& service = *stack.service;
  // Each side runs back to back, so both time warm code and data.
  std::vector<double> service_us;
  for (const auto& [w, p] : draws) {
    const std::uint64_t session = service.open_session();
    rt::BufferHandle buffer = service.buffers().allocate(1);
    buffer[0] = inputs.words[static_cast<std::size_t>(w)];
    service.produce(session, buffer).get();
    const auto s0 = Clock::now();
    const rt::CommandResult result =
        service.run(session, kPassChoices[p]).get();
    service_us.push_back(us_between(s0, Clock::now()));
    service.close_session(session).get();
    if (!result.ok || result.registers != inputs.expected_for(w, p).registers) {
      ctx.fail("serve probe: Service::run differs from the baseline");
    }
  }
  // run_workload on a thread of its own, as a shard worker runs it.
  std::vector<double> execute_us;
  bool execute_ok = true;
  std::thread([&] {
    try {
      auto sim = stack.program->make_simulator();
      for (const auto& [w, p] : draws) {
        const auto e0 = Clock::now();
        const rt::WorkloadResult direct = ServeInputs::run(
            *sim, *stack.program, inputs.words[static_cast<std::size_t>(w)],
            kPassChoices[p]);
        execute_us.push_back(us_between(e0, Clock::now()));
        execute_ok = execute_ok &&
                     direct.registers == inputs.expected_for(w, p).registers;
      }
    } catch (const std::exception&) {
      execute_ok = false;
    }
  }).join();
  if (!execute_ok) ctx.fail("serve probe: run_workload differs from baseline");
  for (int i = 0; i < 5; ++i) {
    (*out)[std::string("rt.rtt_us_p50.") + kRtOps[i]] =
        median(samples.rtt_us[i]);
  }
  (*out)["rt.txn_us_p50.pass1"] = median(samples.txn_pass1_us);
  (*out)["rt.txn_us_p50.pass16"] = median(samples.txn_pass16_us);
  const double service_p50 = median(service_us);
  const double execute_p50 = median(execute_us);
  (*out)["rt.service_run_us_p50"] = service_p50;
  (*out)["rt.execute_us_p50"] = execute_p50;
  (*out)["rt.queue_complete_us"] = service_p50 - execute_p50;
  (*out)["rt.wire_us"] = median(samples.rtt_us[2]) - service_p50;
  for (const char* stage : {"queue", "execute", "complete"}) {
    (*out)[std::string("rt.telemetry.") + stage + "_us_mean"] =
        telemetry_stage_mean(service, (std::string(stage) + "_us").c_str());
  }
  ctx.spans.add(ctx.spans.reserve(), "probe.serve_layers", t0, Clock::now(),
                0, 0);
}

/// The whole serve path probed on one compiled design: the client runs
/// transactions cycling through the pass counts for about `budget_s`.
void serve_probe(const core::CompileResult& r, const std::string& source,
                 double budget_s, Context& ctx, Metrics* out) {
  const auto t0 = Clock::now();
  auto stack = serve_stack(r, source, /*telemetry=*/true, ctx);
  ServeInputs inputs;
  inputs.words = {mix64(ctx.opt.seed)};
  inputs.compute(*stack->program);
  ServeSamples samples;
  std::vector<std::pair<int, int>> draws;
  const Budget budget = Budget::for_seconds(budget_s);
  for (std::uint64_t n = 0; n < 3 || !budget.done(n); ++n) {
    const int p = static_cast<int>(n % 3);
    if (!transaction(stack->client, inputs.words[0], p,
                     inputs.expected_for(0, p), &samples,
                     &ctx.spans, n)) {
      ctx.fail("serve probe: transaction failed or differs from baseline");
    }
    draws.emplace_back(0, p);
  }
  serve_layers(*stack, inputs, samples, draws, ctx, out);
  ctx.spans.add(ctx.spans.reserve(), "probe.serve", t0, Clock::now(), 0, 0);
}

// ------------------------------------------------------ compile workloads

const char* org_name(sim::OrgKind org) {
  return org == sim::OrgKind::Arbitrated ? "arb" : "ed";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compiles a set of designs under both organizations per pass, in an order
/// shuffled by seed. The probes' subject is the first item under the
/// event-driven organization, the cheaper one to simulate and serve.
class CompileWorkload : public Workload {
 public:
  CompileWorkload(Context& ctx,
                  const std::vector<std::pair<std::string, std::string>>& sources,
                  core::CompileOptions options, std::uint64_t warm_up_passes)
      : ctx_(ctx), options_(options), warm_up_passes_(warm_up_passes),
        rng_(ctx.opt.seed) {
    for (const auto& [item, source] : sources) {
      for (sim::OrgKind org :
           {sim::OrgKind::EventDriven, sim::OrgKind::Arbitrated}) {
        units_.push_back({item, source, org});
      }
    }
  }

  void teardown() override { reference_.clear(); }

  /// A part is one reference compile.
  void setup(Slice* s) override {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const PartTimer part;
      reference_.push_back(
          compile_timed(units_[i].source, options_for(units_[i]), nullptr));
      part.record(s, i);
    }
  }
  std::size_t setup_part_kinds() const override { return units_.size(); }

  void prepare() override {
    hardware_ = Hardware{};
    for (std::size_t i = 0; i < units_.size(); ++i) {
      std::string why;
      if (!compile_clean(*reference_[i], &why)) {
        ctx_.fail(units_[i].item + ": " + why);
        return;
      }
      hardware_.add_design(*reference_[i]);
    }
    // The compiled controllers must work: both organizations' designs of an
    // item compute identical registers in one pass of every thread.
    for (std::size_t i = 0; i + 1 < units_.size(); i += 2) {
      const std::uint64_t seed = mix64(ctx_.opt.seed ^ i);
      rt::WorkloadResult results[2];
      for (std::size_t k = 0; k < 2; ++k) {
        const core::CompileResult& r = *reference_[i + k];
        sim::SystemOptions so;
        so.organization = units_[i + k].org;
        so.restart_threads = false;
        auto sim = r.make_simulator(so);
        results[k] = rt::run_workload(*sim, r.program(), r.sema(), 1,
                                      2000000, seed);
        const double latency = mean_round_latency(sim->rounds());
        if (!results[k].converged || latency <= 0) {
          ctx_.fail(units_[i].item + ": check simulation did not converge");
          return;
        }
        hardware_.handoff_mhz.push_back(r.min_fmax_mhz() / latency);
      }
      if (results[0].registers != results[1].registers) {
        ctx_.fail(units_[i].item + ": organizations compute different values");
      }
    }
  }

  Slice run_slice(bool traced, const Budget& budget) override {
    Slice s;
    const auto start = Clock::now();
    std::vector<std::size_t> order(units_.size());
    while (!budget.done(s.attempted)) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.next_below(i)]);
      }
      const std::uint64_t pass_id = traced ? ctx_.spans.reserve() : 0;
      const std::uint64_t pass_index = passes_run_++;
      bool ok = true;
      const OpTimer timer;
      const auto t0 = Clock::now();
      for (std::size_t i : order) {
        const auto c0 = Clock::now();
        const PartTimer part;
        auto r = compile_timed(units_[i].source, options_for(units_[i]),
                               traced ? &traced_ : nullptr);
        part.record(&s, i);
        ok = ok && matches_reference(*r, *reference_[i]);
        if (traced) {
          ctx_.spans.add(ctx_.spans.reserve(),
                         "compile " + units_[i].item + " " +
                             org_name(units_[i].org),
                         c0, Clock::now(), pass_id, pass_index);
        }
      }
      timer.record(&s);
      if (traced) {
        ctx_.spans.add(pass_id, "pass", t0, Clock::now(), 0, pass_index);
        ++traced_.passes;
      }
      ++s.attempted;
      if (!ok) ++s.failed;
      s.work += 1;
    }
    s.elapsed_s = us_between(start, Clock::now()) / 1e6;
    return s;
  }

  const Hardware& hardware() const override { return hardware_; }
  std::uint64_t warm_up_ops() const override {
    return ctx_.opt.smoke ? 1 : warm_up_passes_;
  }
  /// A part is one compile; one of each unit is a pass.
  std::size_t part_kinds() const override { return units_.size(); }
  double ops_per_part_set() const override { return 1.0; }

  void layers(Metrics* out) override {
    compile_layers(traced_,
                   options_.lint.enabled
                       ? PhaseTotals{}
                       : analysis_probe(units_, options_, ctx_),
                   out);
    const CompileUnit& primary = units_.front();
    sim_probe(*reference_.front(), mix64(ctx_.opt.seed),
              ctx_.opt.smoke ? 200 : 2000, ctx_, out);
    serve_probe(*reference_.front(), primary.source,
                ctx_.opt.smoke ? 0.05 : 0.5, ctx_, out);
  }

 private:
  core::CompileOptions options_for(const CompileUnit& u) const {
    core::CompileOptions o = options_;
    o.organization = u.org;
    return o;
  }

  /// A loop compile must reproduce the reference compile exactly.
  static bool matches_reference(const core::CompileResult& r,
                                const core::CompileResult& ref) {
    std::string why;
    if (!compile_clean(r, &why)) return false;
    const fpga::MapResult a = r.total_overhead();
    const fpga::MapResult b = ref.total_overhead();
    return a.luts == b.luts && a.ffs == b.ffs &&
           r.min_fmax_mhz() == ref.min_fmax_mhz();
  }

  Context& ctx_;
  core::CompileOptions options_;
  std::uint64_t warm_up_passes_;
  support::Rng rng_;
  std::uint64_t passes_run_ = 0;
  std::vector<CompileUnit> units_;
  std::vector<std::unique_ptr<core::CompileResult>> reference_;
  Hardware hardware_;
  PhaseTotals traced_;
};

/// examples/*.hic (sorted), the IP forwarding application and the Table 1/2
/// fan-outs.
std::vector<std::pair<std::string, std::string>> corpus_sources(
    const std::string& examples_dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(examples_dir)) {
    if (entry.path().extension() == ".hic") files.push_back(entry.path());
  }
  if (files.empty()) {
    throw std::runtime_error("no .hic files in " + examples_dir);
  }
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& f : files) {
    out.emplace_back(f.filename().string(), read_file(f));
  }
  out.emplace_back("ip_forwarding", netapp::ip_forwarding_source());
  for (int n : kScenarioConsumers) {
    out.emplace_back("fanout" + std::to_string(n), netapp::fanout_source(n));
  }
  return out;
}

// ---------------------------------------------------------- sim workloads

/// The fan-out design simulated in chunks; each chunk resets the simulator
/// and runs a fixed number of cycles on fresh inputs, in blocks of
/// kBlockCycles timed as parts (block k of every chunk runs the same cycles
/// after reset).
class SimWorkload : public Workload {
 public:
  static constexpr std::uint64_t kBlockCycles = 10;

  SimWorkload(Context& ctx, int consumers, sim::OrgKind org,
              std::uint64_t chunk_cycles)
      : ctx_(ctx), consumers_(consumers), org_(org),
        source_(netapp::fanout_source(consumers)),
        chunk_cycles_(chunk_cycles) {
    if (chunk_cycles % kBlockCycles != 0) {
      throw std::logic_error("chunk is not a whole number of blocks");
    }
  }

  void teardown() override {
    sim_.reset();
    result_.reset();
  }

  /// The parts are the compile and the simulator's construction.
  void setup(Slice* s) override {
    core::CompileOptions o;
    o.organization = org_;
    const PartTimer compile;
    result_ = compile_timed(source_, o,
                            ctx_.opt.traced ? &setup_totals_ : nullptr);
    compile.record(s, 0);
    ++setup_totals_.passes;
    if (!result_->ok()) return;
    const PartTimer construct;
    const auto t0 = Clock::now();
    sim_ = result_->make_simulator();
    sim_setup_ms_.push_back(us_between(t0, Clock::now()) / 1e3);
    bind_externs();
    construct.record(s, 1);
  }
  std::size_t setup_part_kinds() const override { return 2; }

  void prepare() override {
    std::string why;
    if (!compile_clean(*result_, &why)) {
      ctx_.fail(why);
      return;
    }
    hardware_ = Hardware{};
    hardware_.add_design(*result_);
    // One untimed chunk; its rounds give the hand-off.
    run_chunk(nullptr, nullptr);
    if (!check_chunk()) ctx_.fail("first chunk: consumer values wrong");
    const double latency = mean_round_latency(sim_->rounds());
    if (latency <= 0) ctx_.fail("first chunk completed no round");
    hardware_.handoff_mhz.push_back(result_->min_fmax_mhz() / latency);
  }

  Slice run_slice(bool traced, const Budget& budget) override {
    Slice s;
    const auto start = Clock::now();
    while (!budget.done(s.attempted)) {
      const auto t0 = Clock::now();
      run_chunk(traced ? &step_ns_ : nullptr, &s);
      if (traced) {
        ctx_.spans.add(ctx_.spans.reserve(), "chunk", t0, Clock::now(), 0,
                       chunk_);
      }
      ++s.attempted;
      if (!check_chunk()) ++s.failed;
      s.work += static_cast<double>(chunk_cycles_);
    }
    s.elapsed_s = us_between(start, Clock::now()) / 1e6;
    return s;
  }

  const Hardware& hardware() const override { return hardware_; }
  std::uint64_t warm_up_ops() const override {
    return ctx_.opt.smoke ? 1 : 20000 / chunk_cycles_;
  }
  /// A part is one block of cycles; one of each block is a chunk.
  std::size_t part_kinds() const override {
    return chunk_cycles_ / kBlockCycles;
  }
  double ops_per_part_set() const override {
    return static_cast<double>(chunk_cycles_);
  }

  void layers(Metrics* out) override {
    compile_layers(setup_totals_,
                   analysis_probe({{"fanout" + std::to_string(consumers_),
                                    source_, org_}},
                                  {}, ctx_),
                   out);
    (*out)["sim.setup_ms"] = median(sim_setup_ms_);
    step_layers(step_ns_, rtl_settle_step_ns(result_->design(), 2000), out);
    ++chunk_;
    sink_layers(*sim_, chunk_cycles_, out);
    serve_probe(*result_, source_, ctx_.opt.smoke ? 0.05 : 0.5, ctx_, out);
  }

 private:
  /// The producer `rx` writes descriptor(chunk, pass) — a pure function of
  /// its pass index, so re-evaluation cannot shift the stream — and each
  /// consumer cN stores classify(descriptor, N), a pure mix.
  static std::uint64_t descriptor(std::uint64_t seed, std::uint64_t chunk,
                                  std::uint64_t pass) {
    return mix64(seed ^ mix64(chunk * 0x100000001b3ull + pass));
  }
  static std::uint64_t classify(std::uint64_t desc, std::uint64_t n,
                                std::uint64_t seed) {
    return mix64(desc * 0x9e3779b97f4a7c15ull + n + seed);
  }

  void bind_externs() {
    const std::uint64_t seed = ctx_.opt.seed;
    sim::SystemSim* sim = sim_.get();
    const std::uint64_t* chunk = &chunk_;
    sim->externs().register_fn(
        "parse_pkt", [sim, chunk, seed](const std::vector<std::uint64_t>&) {
          return descriptor(seed, *chunk,
                            static_cast<std::uint64_t>(sim->passes("rx")));
        });
    sim->externs().register_fn(
        "classify", [seed](const std::vector<std::uint64_t>& args) {
          return classify(args.at(0), args.at(1), seed);
        });
  }

  /// Resets, then steps chunk_cycles_; the stepping time per cycle and of
  /// each block is recorded on `s` when given.
  void run_chunk(std::vector<double>* step_ns, Slice* s) {
    ++chunk_;
    sim_->reset();
    const OpTimer timer;
    for (std::uint64_t block = 0; block < part_kinds(); ++block) {
      const PartTimer part;
      if (step_ns != nullptr) {
        const std::vector<double> ns = timed_steps(*sim_, kBlockCycles);
        step_ns->insert(step_ns->end(), ns.begin(), ns.end());
      } else {
        for (std::uint64_t i = 0; i < kBlockCycles; ++i) sim_->step();
      }
      if (s != nullptr) part.record(s, block);
    }
    if (s != nullptr) timer.record(s, static_cast<double>(chunk_cycles_));
  }

  /// Every consumer holds classify(descriptor, N) of one of the producer's
  /// last few passes, and every thread made progress. (A consumer may
  /// complete more passes than the producer: it can re-read the current
  /// round's data, so its pass count does not name the round.)
  bool check_chunk() const {
    constexpr int kWindow = 4;
    const std::uint64_t mask = (1ull << hic::kIntWidth) - 1;
    const int produced = sim_->passes("rx");
    if (produced < 1) return false;
    for (int n = 0; n < consumers_; ++n) {
      const std::string thread = "c" + std::to_string(n);
      if (sim_->passes(thread) < 1) return false;
      const std::uint64_t got =
          sim_->register_value(thread, "v" + std::to_string(n));
      bool found = false;
      for (int k = std::max(0, produced - kWindow + 1); k <= produced && !found;
           ++k) {
        const std::uint64_t desc =
            descriptor(ctx_.opt.seed, chunk_, static_cast<std::uint64_t>(k)) &
            mask;
        found = (classify(desc, static_cast<std::uint64_t>(n), ctx_.opt.seed) &
                 mask) == got;
      }
      if (!found) return false;
    }
    return true;
  }

  Context& ctx_;
  int consumers_;
  sim::OrgKind org_;
  std::string source_;
  std::uint64_t chunk_cycles_;
  std::unique_ptr<core::CompileResult> result_;
  std::unique_ptr<sim::SystemSim> sim_;
  std::uint64_t chunk_ = 0;
  Hardware hardware_;
  PhaseTotals setup_totals_;
  std::vector<double> sim_setup_ms_;
  std::vector<double> step_ns_;
};

// ---------------------------------------------------------- serve workload

/// Figure 1 served over AF_UNIX by a 2-shard service to one client, which
/// runs transactions back to back with seeded words and pass counts.
class ServeWorkload : public Workload {
 public:
  static constexpr int kPoolWords = 64;

  explicit ServeWorkload(Context& ctx) : ctx_(ctx) {
    support::Rng rng(mix64(ctx.opt.seed));
    for (int i = 0; i < kPoolWords; ++i) inputs_.words.push_back(rng.next_u64());
    rng_.reseed(rng.next_u64());
  }

  void teardown() override {
    plain_.reset();
    traced_stack_.reset();
    result_.reset();
  }

  /// The parts are the compile and the serve stack's start.
  void setup(Slice* s) override {
    const PartTimer compile;
    result_ = compile_timed(source_, {},
                            ctx_.opt.traced ? &setup_totals_ : nullptr);
    compile.record(s, 0);
    ++setup_totals_.passes;
    if (!result_->ok()) return;
    const PartTimer start;
    plain_ = serve_stack(*result_, source_, false, ctx_);
    if (ctx_.opt.traced) {
      traced_stack_ = serve_stack(*result_, source_, true, ctx_);
    }
    start.record(s, 1);
  }
  std::size_t setup_part_kinds() const override { return 2; }

  void prepare() override {
    std::string why;
    if (!compile_clean(*result_, &why)) {
      ctx_.fail(why);
      return;
    }
    hardware_ = Hardware{};
    hardware_.add_design(*result_);
    inputs_.compute(*plain_->program);
    for (std::size_t i = 0; i < inputs_.expected.size(); ++i) {
      if (!inputs_.expected[i].converged || inputs_.round_latency[i] <= 0) {
        ctx_.fail("baseline run did not converge");
        return;
      }
    }
    hardware_.handoff_mhz.push_back(result_->min_fmax_mhz() /
                                    mean(inputs_.round_latency));
  }

  Slice run_slice(bool traced, const Budget& budget) override {
    ServeStack& stack = traced ? *traced_stack_ : *plain_;
    Slice s;
    const auto start = Clock::now();
    // One op is three transactions, one of each pass count in seeded
    // order, so every op does the same work; op times are per transaction
    // and each transaction is a part of its pass count's kind.
    int pass_order[] = {0, 1, 2};
    bool broken = false;  // the connection threw; stop the slice
    while (!broken && !budget.done(s.attempted)) {
      for (int i = 2; i > 0; --i) {
        std::swap(pass_order[i], pass_order[rng_.next_below(i + 1)]);
      }
      const OpTimer timer;
      for (int p : pass_order) {
        const int w = static_cast<int>(rng_.next_below(kPoolWords));
        ++s.attempted;
        const PartTimer part;
        try {
          if (!transaction(stack.client,
                           inputs_.words[static_cast<std::size_t>(w)], p,
                           inputs_.expected_for(w, p),
                           traced ? &samples_ : nullptr,
                           traced ? &ctx_.spans : nullptr, next_txn_++)) {
            ++s.failed;
          }
        } catch (const std::exception&) {
          ++s.failed;
          broken = true;
          break;
        }
        part.record(&s, static_cast<std::size_t>(p));
        if (traced) draws_.emplace_back(w, p);
      }
      if (!broken) timer.record(&s, 3.0);
    }
    s.elapsed_s = us_between(start, Clock::now()) / 1e6;
    s.work = static_cast<double>(s.attempted);
    return s;
  }

  const Hardware& hardware() const override { return hardware_; }
  std::uint64_t warm_up_ops() const override {
    return ctx_.opt.smoke ? 2 : 2000;
  }
  /// A part is one transaction; one of each pass count is three.
  std::size_t part_kinds() const override { return std::size(kPassChoices); }
  double ops_per_part_set() const override {
    return static_cast<double>(std::size(kPassChoices));
  }

  void layers(Metrics* out) override {
    compile_layers(setup_totals_,
                   analysis_probe({{"fig1", source_, sim::OrgKind::Arbitrated}},
                                  {}, ctx_),
                   out);
    sim_probe(*result_, rt::fold_seed(rt::kWorkloadSeedInit,
                                      inputs_.words.data(), 1),
              ctx_.opt.smoke ? 200 : 20000, ctx_, out);
    std::vector<std::pair<int, int>> draws(
        draws_.begin(),
        draws_.begin() + static_cast<std::ptrdiff_t>(
                             std::min<std::size_t>(draws_.size(), 600)));
    serve_layers(*traced_stack_, inputs_, samples_, draws, ctx_, out);
  }

 private:
  Context& ctx_;
  const std::string source_ = netapp::figure1_source();
  std::unique_ptr<core::CompileResult> result_;
  std::unique_ptr<ServeStack> plain_;
  std::unique_ptr<ServeStack> traced_stack_;
  ServeInputs inputs_;
  Hardware hardware_;
  PhaseTotals setup_totals_;
  ServeSamples samples_;
  std::vector<std::pair<int, int>> draws_;  // traced (word, pass) inputs
  support::Rng rng_;
  std::uint64_t next_txn_ = 0;
};

}  // namespace

namespace {

// -------------------------------------------------------------------- main

bool parse_args(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        *error = arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt->workload = value;
      } else if (arg == "--seed") {
        opt->seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          *error = "--trace takes 0 or 1";
          return false;
        }
        opt->traced = value == "1";
      } else if (arg == "--examples") {
        opt->examples = value;
      } else if (arg == "--out-dir") {
        opt->out_dir = value;
      } else {
        *error = "unknown option " + arg;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  if (opt->seconds <= 0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> make_workload(Context& ctx) {
  const std::string& name = ctx.opt.workload;
  if (name == "compile-corpus") {
    return std::make_unique<CompileWorkload>(
        ctx, corpus_sources(ctx.opt.examples), core::CompileOptions{}, 50);
  }
  if (name == "compile-analyses") {
    return std::make_unique<CompileWorkload>(
        ctx,
        std::vector<std::pair<std::string, std::string>>{
            {"fanout32", netapp::fanout_source(32)}},
        with_analyses({}), 20);
  }
  if (name == "sim-arb8") {
    return std::make_unique<SimWorkload>(ctx, 8, sim::OrgKind::Arbitrated,
                                         500);
  }
  if (name == "sim-ed32") {
    return std::make_unique<SimWorkload>(ctx, 32, sim::OrgKind::EventDriven,
                                         250);
  }
  if (name == "rt-fig1") return std::make_unique<ServeWorkload>(ctx);
  return nullptr;
}

/// Peak resident set of this process image in MB: VmHWM, which exec
/// resets. (getrusage's ru_maxrss also counts the launcher's footprint
/// from before exec, so it would measure the Python wrapper.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024 / 1e6;  // kB
    }
  }
  return static_cast<double>(perf::peak_rss_bytes()) / 1e6;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Writes BENCH_e2e_<name>.json and parses it back.
bool write_bench_report(const Context& ctx, const std::string& name,
                        const std::vector<MetricSpec>& specs,
                        const Metrics& values, bool correct) {
  bench::JsonBenchReport report(name);
  report.set("workload", ctx.opt.workload);
  report.set("seed", static_cast<std::uint64_t>(ctx.opt.seed));
  report.set("seconds", ctx.opt.seconds);
  report.set("smoke", ctx.opt.smoke);
  report.set("correct", correct);
  for (const MetricSpec& m : specs) report.set(m.name, values.at(m.name));
  const std::string path = ctx.opt.out_dir + "/" + report.path();
  {
    std::ofstream out(path);
    out << report.str();
    if (!out) return false;
  }
  support::JsonValue doc;
  if (!support::parse_json(read_file(path), &doc)) return false;
  for (const MetricSpec& m : specs) {
    const support::JsonValue* v = doc.find(m.name);
    if (v == nullptr || !v->is_number()) return false;
  }
  return true;
}

/// Runs the loop for `seconds` in stretches of about 25 ms, with the
/// core's clock measured between stretches (into `ghz` when given). A
/// shared host moves its cores' clock with its load, by a third within a
/// run, and the cycle count does not move with it. The cost in cycles of an
/// op or a timed part is its CPU time times the higher of the clocks
/// measured before and after its stretch, so a part run while the clock
/// rose is not counted cheaper than it was. Parts go into `floor` when
/// given.
Slice run_clocked(Workload& workload, bool traced, double seconds,
                  std::vector<double>* ghz, PartFloor* floor) {
  double before = core_ghz();
  if (ghz != nullptr) ghz->push_back(before);
  const Budget whole = Budget::for_seconds(seconds);
  Slice total;
  do {
    Budget stretch;
    stretch.deadline =
        std::min(whole.deadline, Clock::now() + std::chrono::milliseconds(25));
    const double c0 = cpu_seconds();
    Slice s = workload.run_slice(traced, stretch);
    s.cpu_s = cpu_seconds() - c0;
    const double after = core_ghz();
    if (ghz != nullptr) ghz->push_back(after);
    const double clock = std::max(before, after);
    for (double us : s.op_cpu_us) s.op_kcycles.push_back(us * clock);
    if (floor != nullptr) floor->add_stretch(s.parts, clock);
    s.parts.clear();
    total.append(s);
    before = after;
  } while (!whole.done(0));
  return total;
}

/// The processor's nominal clock in GHz: the rate of the time-stamp counter,
/// which an x86-64 processor with an invariant TSC runs at its nominal
/// frequency whatever its cores' clocks. Elsewhere, the core's clock now.
double nominal_ghz() {
#if defined(__x86_64__)
  const auto t0 = Clock::now();
  const std::uint64_t c0 = __rdtsc();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t c1 = __rdtsc();
  return static_cast<double>(c1 - c0) / (us_between(t0, Clock::now()) * 1e3);
#else
  return core_ghz();
#endif
}

/// Tears the system down (untimed) and sets it up again, adding the
/// set-up's parts to `floor` as a stretch at the higher of the clocks
/// measured around it.
void timed_setup(Workload& workload, PartFloor* floor) {
  workload.teardown();
  const double before = core_ghz();
  Slice s;
  workload.setup(&s);
  floor->add_stretch(s.parts, std::max(before, core_ghz()));
}

/// Pins the calling thread, and so every thread it starts later, to the
/// core it runs on. Returns the core, or -1 when it could not be pinned.
int pin_to_current_core() {
  const int core = ::sched_getcpu();
  if (core < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? core : -1;
}

int run(const Options& opt) {
  Context ctx(opt);
  std::unique_ptr<Workload> workload = make_workload(ctx);
  if (!workload) {
    std::fprintf(stderr,
                 "bench_e2e: unknown workload '%s' (compile-corpus, "
                 "compile-analyses, sim-arb8, sim-ed32, rt-fig1)\n",
                 opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);
  // One core for every thread: CPU time then splits exactly between
  // operations, and a hand-off between threads is a context switch rather
  // than a wake-up of another, possibly idle, core.
  std::printf("# pinned to core %d\n", pin_to_current_core());

  // Set-ups run untimed for the first 0.3 s (at least twice): they fault in
  // code and data and bring the core up to speed, as the timed ones find.
  const Budget untimed = Budget::for_seconds(opt.smoke ? 0.0 : 0.3);
  for (std::uint64_t i = 0; i < 2 || !untimed.done(i); ++i) {
    workload->teardown();
    Slice ignored;
    workload->setup(&ignored);
  }
  workload->prepare();
  if (!ctx.failures.empty()) {
    for (const std::string& why : ctx.failures) {
      std::fprintf(stderr, "bench_e2e: set-up check failed: %s\n", why.c_str());
    }
    return 1;
  }
  // A fixed amount of checked work before the timed loop. The resident set
  // is read after it, so it does not grow with how fast the loop runs.
  const Slice warm = workload->run_slice(
      false, Budget::for_ops(workload->warm_up_ops()));
  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.failed;
  const double rss_mb = peak_rss_mb();

  const double seconds = opt.smoke ? opt.seconds / 100 : opt.seconds;
  Metrics values;
  if (!opt.traced) {
    // The system is set up again before every 0.1 s of the loop (at least
    // 3 times a round), so that set-ups sample the whole run. setup_s is
    // the median over five rounds, each a fifth of the run, of a set-up's
    // cost in the round: its parts' floors (see PartFloor), summed, divided
    // by the nominal clock, so in seconds at the processor's nominal clock.
    const int rounds = opt.smoke ? 1 : 5;
    const double round_s = seconds / rounds;
    const double nominal = nominal_ghz();
    std::vector<double> ghz;
    std::vector<double> setup_s;
    PartFloor floor(workload->part_kinds());
    Slice s;
    for (int round = 0; round < rounds; ++round) {
      PartFloor setups(workload->setup_part_kinds());
      const Budget budget = Budget::for_seconds(round_s);
      for (std::uint64_t i = 0; i < PartFloor::kRank || !budget.done(0); ++i) {
        timed_setup(*workload, &setups);
        s.append(run_clocked(*workload, false,
                             std::min(0.1, round_s / PartFloor::kRank), &ghz,
                             &floor));
      }
      setup_s.push_back(setups.sum() / (nominal * 1e6));  // kcycles -> s
    }
    attempted += s.attempted;
    failed += s.failed;
    const Hardware& hw = workload->hardware();
    values["op_kcycles_floor"] = floor.sum() / workload->ops_per_part_set();
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = rss_mb;
    values["fmax_mhz_geomean"] = geomean(hw.controller_fmax_mhz);
    values["luts_total"] = hw.luts;
    values["ffs_total"] = hw.ffs;
    values["handoff_mhz"] = geomean(hw.handoff_mhz);
    std::printf("# %s: %llu ops, %zu kinds of part each in %llu stretches "
                "or more, clock %.4g-%.4g GHz\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(s.attempted),
                workload->part_kinds(),
                static_cast<unsigned long long>(floor.fewest_stretches()),
                quantile(ghz, 0.0), quantile(ghz, 1.0));
  } else {
    // Untraced and traced slices alternate in ABBA order, so drift over the
    // run affects both sides alike.
    const bool order[] = {false, true, true, false, false, true, true, false};
    Slice sides[2];  // untraced, traced
    for (bool traced : order) {
      const Slice s =
          run_clocked(*workload, traced, seconds / 8, nullptr, nullptr);
      attempted += s.attempted;
      failed += s.failed;
      sides[traced ? 1 : 0].append(s);
    }
    const Slice& plain = sides[0];
    // In cycles, so that the clock moving between slices does not count.
    values["trace_overhead_pct"] =
        100.0 * (median(sides[1].op_kcycles) / median(plain.op_kcycles) - 1.0);
    // CPU time and wall time move with the host's load (its clock, other
    // guests on the core), so these are reported here, from the untraced
    // slices, rather than gated end to end.
    values["loop.ops_per_cpu_s"] = plain.work / plain.cpu_s;
    values["loop.op_kcycles_p50"] = median(plain.op_kcycles);
    values["loop.op_cpu_us_p50"] = median(plain.op_cpu_us);
    values["loop.ops_per_s"] = plain.work / plain.elapsed_s;
    values["loop.op_us_p50"] = median(plain.op_us);
    values["loop.op_us_p90"] = quantile(plain.op_us, 0.9);
    std::printf("# %s: %zu untraced latency samples\n", opt.workload.c_str(),
                plain.op_us.size());
    workload->layers(&values);
    scenario_layers(&values);
  }

  const std::vector<MetricSpec>& specs =
      opt.traced ? per_layer_specs() : end_to_end_specs();
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      ctx.fail("metric " + m.name + " missing or not finite");
      values[m.name] = 0.0;
    }
  }
  if (attempted == 0) ctx.fail("no operation completed");
  if (failed != 0) ctx.fail(std::to_string(failed) + " operations failed");

  const std::string bench_name =
      "e2e_" + opt.workload + (opt.traced ? "_traced" : "");
  if (!write_bench_report(ctx, bench_name, specs, values,
                          ctx.failures.empty())) {
    ctx.fail("BENCH report did not round-trip through parse_json");
  }
  if (opt.traced) {
    const std::string path =
        opt.out_dir + "/TRACE_e2e_" + opt.workload + ".jsonl";
    if (!ctx.spans.write(path)) ctx.fail("cannot write " + path);
    std::printf("# %zu spans in %s (%llu past the cap not kept)\n",
                ctx.spans.size(), path.c_str(),
                static_cast<unsigned long long>(ctx.spans.dropped()));
  }
  for (const std::string& why : ctx.failures) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", why.c_str());
  }
  const bool correct = ctx.failures.empty();

  support::JsonWriter w(0);
  w.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(static_cast<std::uint64_t>(attempted))
      .key("failed").value(static_cast<std::uint64_t>(failed))
      .key("metrics").begin_object();
  for (const MetricSpec& m : specs) {
    std::printf("%s %.6g %s\n", m.name.c_str(), values[m.name],
                m.unit.c_str());
    w.key(m.name).begin_object()
        .key("value").raw(number(values[m.name]))
        .key("unit").value(m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_args(argc, argv, &opt, &error) || opt.workload.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--examples DIR] "
                 "[--out-dir DIR]\n",
                 error.empty() ? "--workload is required" : error.c_str());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
