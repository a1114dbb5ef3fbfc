// Toolchain micro-benchmarks (google-benchmark): throughput of each stage
// of the compilation flow on the paper's scenarios. Not a paper experiment
// — engineering data for users of the library.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_gbench_util.h"
#include "bound/bound.h"
#include "core/compiler.h"
#include "fpga/techmap.h"
#include "hic/parser.h"
#include "memorg/arbitrated.h"
#include "netapp/scenarios.h"
#include "perf/profile.h"
#include "rtl/verilog.h"

using namespace hicsync;

static void BM_ParseFigure1(benchmark::State& state) {
  const std::string src = netapp::figure1_source();
  for (auto _ : state) {
    support::DiagnosticEngine diags;
    hic::Program p = hic::parse_source(src, diags);
    benchmark::DoNotOptimize(p.threads.size());
  }
}
BENCHMARK(BM_ParseFigure1);

static void BM_FullCompileFanout(benchmark::State& state) {
  const std::string src =
      netapp::fanout_source(static_cast<int>(state.range(0)));
  core::Compiler compiler;
  for (auto _ : state) {
    auto r = compiler.compile(src);
    benchmark::DoNotOptimize(r->ok());
  }
}
BENCHMARK(BM_FullCompileFanout)->Arg(2)->Arg(4)->Arg(8);

// The same compile with the hic-perf pass profiler attached — the delta
// against BM_FullCompileFanout/8 is the cost of `hicc --profile`.
static void BM_FullCompileFanoutProfiled(benchmark::State& state) {
  const std::string src =
      netapp::fanout_source(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    perf::PassTimer timer;
    core::CompileOptions options;
    options.profiler = &timer;
    core::Compiler compiler(options);
    auto r = compiler.compile(src);
    benchmark::DoNotOptimize(r->ok());
    benchmark::DoNotOptimize(timer.total_wall_ns());
  }
}
BENCHMARK(BM_FullCompileFanoutProfiled)->Arg(8);

// hic-bound over the Table 1/2 fan-out ladder: the compile (front end +
// allocation + port planning, lint-only) happens once outside the loop;
// the measured region is the abstract interpretation itself — the
// milliseconds-at-1024 claim behind the static analysis.
static void BM_BoundAnalysisFanout(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::CompileOptions copts;
  copts.lint.enabled = true;
  copts.lint.only = true;
  core::Compiler compiler(copts);
  auto c = compiler.compile(netapp::fanout_source(n));
  bound::BoundOptions bopts;
  bopts.enabled = true;
  for (auto _ : state) {
    bound::BoundResult r =
        bound::run_bound(c->program(), c->sema(), c->memory_map(),
                         c->port_plans(), sim::OrgKind::Arbitrated, bopts);
    benchmark::DoNotOptimize(r.worklist_steps);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BoundAnalysisFanout)->Arg(64)->Arg(256)->Arg(1024);

// Cost of one disabled ScopedPhase bracket (the default path every
// Compiler::compile pays): a null-check on entry and exit.
static void BM_ScopedPhaseDisabled(benchmark::State& state) {
  for (auto _ : state) {
    perf::ScopedPhase phase(nullptr, "off");
    benchmark::DoNotOptimize(&phase);
  }
}
BENCHMARK(BM_ScopedPhaseDisabled);

static void BM_GenerateArbitrated(benchmark::State& state) {
  memorg::ArbitratedConfig cfg;
  cfg.num_consumers = static_cast<int>(state.range(0));
  memorg::DepEntry e;
  e.base_address = 4;
  e.dependency_number = cfg.num_consumers;
  for (int i = 0; i < cfg.num_consumers; ++i) e.consumer_ports.push_back(i);
  cfg.deps.push_back(e);
  for (auto _ : state) {
    rtl::Design d;
    rtl::Module& m = memorg::generate_arbitrated(d, cfg, "arb");
    benchmark::DoNotOptimize(m.nets().size());
  }
}
BENCHMARK(BM_GenerateArbitrated)->Arg(2)->Arg(8);

static void BM_TechMapArbitrated(benchmark::State& state) {
  memorg::ArbitratedConfig cfg;
  cfg.num_consumers = static_cast<int>(state.range(0));
  memorg::DepEntry e;
  e.base_address = 4;
  e.dependency_number = cfg.num_consumers;
  for (int i = 0; i < cfg.num_consumers; ++i) e.consumer_ports.push_back(i);
  cfg.deps.push_back(e);
  rtl::Design d;
  rtl::Module& m = memorg::generate_arbitrated(d, cfg, "arb");
  fpga::TechMapper mapper;
  for (auto _ : state) {
    auto r = mapper.map(m);
    benchmark::DoNotOptimize(r.luts);
  }
}
BENCHMARK(BM_TechMapArbitrated)->Arg(2)->Arg(8);

static void BM_EmitVerilog(benchmark::State& state) {
  auto result = core::Compiler().compile(netapp::figure1_source());
  for (auto _ : state) {
    std::string v = result->verilog();
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_EmitVerilog);

// Asserted invariant (ISSUE 3 / docs/OBSERVABILITY.md): with no profiler
// attached, a ScopedPhase bracket is a single branch — it must not cost
// measurably more than a handful of ns even under sanitizers-off debug
// builds. Run before the benchmarks so a violation fails the binary.
static bool assert_disabled_profiler_is_a_branch() {
  constexpr int kIters = 1 << 20;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    perf::ScopedPhase phase(nullptr, "off");
    benchmark::DoNotOptimize(&phase);
  }
  auto t1 = std::chrono::steady_clock::now();
  const double ns_per =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  // A clock read alone is ~20ns; a branch pair is well under 5ns. 10ns
  // keeps the assertion robust on loaded CI machines while still
  // catching an accidental unconditional steady_clock::now().
  const bool ok = ns_per < 10.0;
  std::printf("disabled ScopedPhase: %.2f ns per bracket (limit 10) — %s\n",
              ns_per, ok ? "ok" : "FAIL");
  return ok;
}

// Asserted invariant (hic-perf convention): the bound phase is strictly
// opt-in. A profiled compile without --bound must not contain a "bound"
// pass; with it, the pass and its counters must appear.
static bool assert_bound_phase_is_opt_in() {
  auto has_bound_phase = [](bool enabled) {
    perf::PassTimer timer;
    core::CompileOptions options;
    options.profiler = &timer;
    options.lint.enabled = true;
    options.lint.only = true;
    options.bound.enabled = enabled;
    core::Compiler compiler(options);
    auto r = compiler.compile(netapp::figure1_source());
    if (!r->ok()) return true;  // force a FAIL either way
    for (const perf::PassTimer::Phase& p : timer.phases()) {
      if (p.name == "bound") return true;
    }
    return false;
  };
  const bool off = has_bound_phase(false);
  const bool on = has_bound_phase(true);
  const bool ok = !off && on;
  std::printf("bound phase opt-in: disabled=%s enabled=%s — %s\n",
              off ? "present" : "absent", on ? "present" : "absent",
              ok ? "ok" : "FAIL");
  return ok;
}

int main(int argc, char** argv) {
  if (!assert_disabled_profiler_is_a_branch()) return 1;
  if (!assert_bound_phase_is_opt_in()) return 1;
  return hicsync::bench::run_gbench_with_json(argc, argv, "compile");
}
