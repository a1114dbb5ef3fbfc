// Simulator micro-benchmarks (google-benchmark): cycle throughput of the
// system simulator (thread FSM interpreters over the generated controller
// netlists). Engineering data, not a paper experiment.
//
// The main additionally asserts hic-trace's zero-cost-when-off claim: a
// simulation with no trace bus and one with an empty bus attached (both
// take the branch-only fast path) must run within 2% of each other.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_gbench_util.h"
#include "bench_util.h"
#include "core/compiler.h"
#include "cover/sink.h"
#include "netapp/scenarios.h"
#include "trace/bus.h"

using namespace hicsync;

static void BM_SystemSimCycles(benchmark::State& state) {
  core::CompileOptions options;
  options.organization = state.range(1) == 0 ? sim::OrgKind::Arbitrated
                                             : sim::OrgKind::EventDriven;
  auto result = core::Compiler(options).compile(
      netapp::fanout_source(static_cast<int>(state.range(0))));
  auto simulator = result->make_simulator();
  for (auto _ : state) {
    simulator->step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemSimCycles)
    ->Args({2, 0})
    ->Args({8, 0})
    ->Args({2, 1})
    ->Args({8, 1});

static void BM_ModuleSimSettleStep(benchmark::State& state) {
  memorg::ArbitratedConfig cfg;
  cfg.num_consumers = static_cast<int>(state.range(0));
  memorg::DepEntry e;
  e.base_address = 4;
  e.dependency_number = cfg.num_consumers;
  for (int i = 0; i < cfg.num_consumers; ++i) e.consumer_ports.push_back(i);
  cfg.deps.push_back(e);
  rtl::Design d;
  rtl::Module& m = memorg::generate_arbitrated(d, cfg, "arb");
  rtl::ModuleSim sim(m);
  sim.reset();
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModuleSimSettleStep)->Arg(2)->Arg(8);

static void BM_EndToEndHandoff(benchmark::State& state) {
  auto result = core::Compiler().compile(netapp::figure1_source());
  for (auto _ : state) {
    auto simulator = result->make_simulator();
    bool ok = simulator->run_until_passes(1, 1000);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_EndToEndHandoff);

static void BM_SystemSimCyclesEmptyTraceBus(benchmark::State& state) {
  auto result = core::Compiler().compile(netapp::fanout_source(4));
  auto simulator = result->make_simulator();
  trace::TraceBus bus;  // no sinks: active() is false, branch-only path
  simulator->set_trace(&bus);
  for (auto _ : state) {
    simulator->step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemSimCyclesEmptyTraceBus);

// The attached-sink cost of functional coverage: every event becomes a
// string-keyed bin lookup, so this bounds what `hicc --cover` adds on top
// of an untraced run (the zero-cost-when-off claim is the check below —
// coverage off must stay on the branch-only path).
static void BM_SystemSimCyclesCoverageSink(benchmark::State& state) {
  auto result = core::Compiler().compile(netapp::fanout_source(4));
  const cover::ModelInputs inputs = cover::inputs_from(
      result->options().organization, result->fsms(), result->controllers());
  cover::CoverageModel model;
  cover::declare_model(cover::CoverRegistry::builtin(), inputs, model);
  cover::CoverageSink sink(model, inputs);
  auto simulator = result->make_simulator();
  trace::TraceBus bus;
  bus.attach(&sink);
  simulator->set_trace(&bus);
  for (auto _ : state) {
    simulator->step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemSimCyclesCoverageSink);

namespace {

double seconds_for_steps(sim::SystemSim& simulator, int steps) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) simulator.step();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Asserts the acceptance criterion "tracing disabled costs no measurable
// slowdown": min-of-N wall time of untraced vs empty-bus runs, < 2% apart.
int check_tracing_disabled_overhead() {
  auto result = core::Compiler().compile(netapp::fanout_source(4));
  constexpr int kSteps = 20000;
  constexpr int kReps = 9;
  double best_off = 1e100;
  double best_on = 1e100;
  for (int r = 0; r < kReps; ++r) {
    {
      auto simulator = result->make_simulator();
      best_off = std::min(best_off, seconds_for_steps(*simulator, kSteps));
    }
    {
      auto simulator = result->make_simulator();
      trace::TraceBus bus;
      simulator->set_trace(&bus);
      best_on = std::min(best_on, seconds_for_steps(*simulator, kSteps));
    }
  }
  const double overhead_pct = 100.0 * (best_on - best_off) / best_off;
  const bool pass = overhead_pct < 2.0;
  std::printf("tracing-disabled overhead: untraced %.1f ns/cycle, "
              "empty bus %.1f ns/cycle, overhead %+.2f%% (limit 2%%): %s\n",
              best_off / kSteps * 1e9, best_on / kSteps * 1e9, overhead_pct,
              pass ? "PASS" : "FAIL");
  bench::JsonBenchReport report("sim_trace_overhead");
  report.set("untraced_ns_per_cycle", best_off / kSteps * 1e9);
  report.set("empty_bus_ns_per_cycle", best_on / kSteps * 1e9);
  report.set("overhead_pct", overhead_pct);
  report.set("limit_pct", 2.0);
  report.set("pass", pass);
  report.write();
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int gbench = bench::run_gbench_with_json(argc, argv, "sim");
  if (gbench != 0) return gbench;
  return check_tracing_disabled_overhead();
}
