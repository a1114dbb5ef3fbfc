// hic-rt service throughput — the sessions × shards ladder.
//
// Loads the fig1 artifact into rt::Service pools of increasing shard
// count, drives S sessions of produce→run→consume traffic through each,
// and reports aggregate command/run throughput plus the shard-scaling
// ratio. Every session's registers are checked against the fresh
// single-instance baseline (the hic-rt determinism contract); a mismatch
// fails the bench, so the throughput numbers can never come from wrong
// results.
//
// Emits BENCH_rt.json (rt.fig1.shard<N>.s<S>.throughput_cmds_per_s, ...,
// rt.scaling_shard8_vs_1) for hic-report ingestion. Scaling on a
// single-core CI box hovers near 1.0 — it is recorded, not asserted;
// throughput keys are regression-gated by direction (higher is better).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/service.h"
#include "rt/store.h"
#include "rt/workload.h"
#include "support/table.h"

using namespace hicsync;

namespace {

struct LadderPoint {
  int shards;
  int sessions;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU time across all threads
  double cmds_per_s = 0.0;
  double runs_per_s = 0.0;
  bool differential_ok = true;
};

double process_cpu_us() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

LadderPoint drive(const std::shared_ptr<const rt::LoadedProgram>& program,
                  int shards, int sessions,
                  const std::map<std::uint64_t, rt::WorkloadResult>&
                      baselines,
                  int distinct_inputs, bool telemetry = false,
                  int passes = 0) {
  LadderPoint point;
  point.shards = shards;
  point.sessions = sessions;

  rt::ServiceOptions options;
  options.shards = shards;
  // The overhead comparison measures steady-state span capture, not slow
  // promotion: threshold high enough that nothing hits the forensics path.
  options.telemetry.enabled = telemetry;
  options.telemetry.slow_threshold_us = 60ULL * 1000 * 1000;
  rt::Service service(program, options);

  struct Pending {
    std::uint64_t input;
    std::future<rt::CommandResult> result;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(sessions));

  double cpu_start = process_cpu_us();
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < sessions; ++i) {
    std::uint64_t input = static_cast<std::uint64_t>(i % distinct_inputs);
    std::uint64_t session = service.open_session();
    rt::BufferHandle buf = service.buffers().allocate(1);
    buf[0] = input;
    service.produce(session, std::move(buf));
    service.run(session, passes);
    pending.push_back({input, service.consume(session, {})});
  }
  service.drain();
  auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  double cpu_us = process_cpu_us() - cpu_start;

  for (auto& p : pending) {
    rt::CommandResult r = p.result.get();
    if (!r.ok || r.registers != baselines.at(p.input).registers) {
      point.differential_ok = false;
    }
  }

  rt::Service::Stats stats = service.stats();
  double secs = static_cast<double>(wall_us) / 1e6;
  point.wall_ms = static_cast<double>(wall_us) / 1e3;
  point.cpu_ms = cpu_us / 1e3;
  if (secs > 0) {
    point.cmds_per_s = static_cast<double>(stats.completed) / secs;
    point.runs_per_s = static_cast<double>(stats.runs) / secs;
  }
  service.shutdown();
  return point;
}

}  // namespace

int main() {
  // Compile fig1 once, round-trip it through the artifact (the same bytes
  // `hicc --emit-artifact` writes) and serve the loaded program.
  core::CompileOptions copts;
  copts.source_name = "fig1.hic";
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler(copts).compile(source);
  if (!compiled->ok()) {
    std::fprintf(stderr, "fig1 failed to compile:\n%s",
                 compiled->diags().str().c_str());
    return 1;
  }
  rt::ProgramStore store;
  rt::ArtifactError error;
  auto program =
      store.load_bytes(rt::emit_artifact(*compiled, source), &error);
  if (program == nullptr) {
    std::fprintf(stderr, "artifact load failed: %s\n", error.str().c_str());
    return 1;
  }

  // Single-instance baselines for the differential check.
  const int distinct_inputs = 8;
  std::map<std::uint64_t, rt::WorkloadResult> baselines;
  auto baseline_sim = program->make_simulator();
  for (int k = 0; k < distinct_inputs; ++k) {
    std::uint64_t input = static_cast<std::uint64_t>(k);
    std::uint64_t seed = rt::fold_seed(rt::kWorkloadSeedInit, &input, 1);
    baselines[input] =
        rt::run_workload(*baseline_sim, program->program(), program->sema(),
                         1, 200000, seed);
    if (!baselines[input].converged) {
      std::fprintf(stderr, "baseline run %d did not converge\n", k);
      return 1;
    }
  }

  std::printf("=== hic-rt service throughput: sessions x shards ladder "
              "(fig1, arbitrated) ===\n\n");
  support::TextTable table({"shards", "sessions", "wall ms", "commands/s",
                            "runs/s", "differential"});
  bench::JsonBenchReport report("rt");

  bool ok = true;
  std::map<int, double> cmds_at_64;  // shard count -> throughput at s=64
  for (int shards : {1, 2, 4, 8}) {
    for (int sessions : {8, 64}) {
      LadderPoint p = drive(program, shards, sessions, baselines,
                            distinct_inputs);
      ok &= p.differential_ok;
      if (sessions == 64) cmds_at_64[shards] = p.cmds_per_s;

      char wall[32], cmds[32], runs[32];
      std::snprintf(wall, sizeof wall, "%.1f", p.wall_ms);
      std::snprintf(cmds, sizeof cmds, "%.0f", p.cmds_per_s);
      std::snprintf(runs, sizeof runs, "%.0f", p.runs_per_s);
      table.add_row({std::to_string(shards), std::to_string(sessions), wall,
                     cmds, runs, p.differential_ok ? "identical" : "MISMATCH"});

      std::string prefix = "rt.fig1.shard" + std::to_string(shards) + ".s" +
                           std::to_string(sessions);
      report.set(prefix + ".throughput_cmds_per_s", p.cmds_per_s);
      report.set(prefix + ".throughput_runs_per_s", p.runs_per_s);
      report.set(prefix + ".wall_ms", p.wall_ms);
    }
  }
  std::printf("%s\n", table.str().c_str());

  // Recorded, not asserted: on a single hardware thread the pool cannot
  // scale; BENCH_rt.json carries the ratio where cores exist.
  double scaling = cmds_at_64[1] > 0 ? cmds_at_64[8] / cmds_at_64[1] : 0.0;
  std::printf("scaling (8 shards vs 1, 64 sessions): %.2fx\n", scaling);
  std::printf("differential vs single instance: %s\n",
              ok ? "identical" : "MISMATCH");

  // Telemetry overhead at the 512-session × 4-shard point, with 3-pass
  // run commands — representative request weight, not the feather-weight
  // ladder command whose cost is mostly service machinery. Methodology,
  // tuned on a single-core shared box (±15% wall-clock drift observed):
  //   * the delta is taken on *process CPU time*, not wall time — a
  //     noisy neighbor stealing the core inflates wall but not the CPU
  //     the service itself consumed, and on a saturated box throughput
  //     is 1/CPU-per-command;
  //   * one unmeasured off/on warmup pair absorbs first-touch and
  //     frequency-ramp effects;
  //   * reps counterbalance order (even rep: off then on, odd rep: on
  //     then off) so "runs second" bias cancels;
  //   * the lower-quartile pair ratio is the gated estimate. A noisy
  //     phase disturbs pairs one-sidedly and can pollute the median,
  //     while the cleanest quarter of pairs tracks the true shift — and
  //     a genuine regression moves every quantile, so p25 still catches
  //     it.
  // The <5% claim is gated twice: the within_limit_ok flag here and the
  // rt.telemetry_overhead constraint in `hic-report --check` once the
  // run is ingested.
  const int kOverheadReps = 10;
  const int kOverheadSessions = 512;
  const int kOverheadPasses = 3;
  const double kOverheadLimitPct = 5.0;
  std::map<std::uint64_t, rt::WorkloadResult> baselines3;
  auto baseline3_sim = program->make_simulator();
  for (int k = 0; k < distinct_inputs; ++k) {
    std::uint64_t input = static_cast<std::uint64_t>(k);
    std::uint64_t seed = rt::fold_seed(rt::kWorkloadSeedInit, &input, 1);
    baselines3[input] =
        rt::run_workload(*baseline3_sim, program->program(),
                         program->sema(), kOverheadPasses, 200000, seed);
    if (!baselines3[input].converged) {
      std::fprintf(stderr, "%d-pass baseline run %d did not converge\n",
                   kOverheadPasses, k);
      return 1;
    }
  }
  auto overhead_rep = [&](bool telemetry) {
    return drive(program, 4, kOverheadSessions, baselines3, distinct_inputs,
                 telemetry, kOverheadPasses);
  };
  overhead_rep(false);  // warmup
  overhead_rep(true);
  double best_off = 0.0;
  double best_on = 0.0;
  std::vector<double> cpu_ratios;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const bool off_first = rep % 2 == 0;
    LadderPoint first = overhead_rep(/*telemetry=*/!off_first);
    LadderPoint second = overhead_rep(/*telemetry=*/off_first);
    ok &= first.differential_ok && second.differential_ok;
    const LadderPoint& off = off_first ? first : second;
    const LadderPoint& on = off_first ? second : first;
    best_off = std::max(best_off, off.cmds_per_s);
    best_on = std::max(best_on, on.cmds_per_s);
    if (off.cpu_ms > 0) cpu_ratios.push_back(on.cpu_ms / off.cpu_ms);
  }
  std::sort(cpu_ratios.begin(), cpu_ratios.end());
  double p25_cpu_ratio =
      cpu_ratios.empty() ? 1.0 : cpu_ratios[cpu_ratios.size() / 4];
  double overhead_pct = 100.0 * (p25_cpu_ratio - 1.0);
  bool within_limit = overhead_pct <= kOverheadLimitPct;
  std::printf(
      "telemetry overhead (4 shards, %d sessions, %d-pass runs, p25 "
      "CPU ratio of %d counterbalanced pairs): off %.0f cmds/s, on %.0f "
      "cmds/s, %.2f%% CPU (limit %.0f%%) %s\n",
      kOverheadSessions, kOverheadPasses, kOverheadReps, best_off, best_on,
      overhead_pct, kOverheadLimitPct, within_limit ? "ok" : "EXCEEDED");

  report.set("rt.telemetry.throughput_off_cmds_per_s", best_off);
  report.set("rt.telemetry.throughput_on_cmds_per_s", best_on);
  report.set("rt.telemetry.overhead_pct", overhead_pct);
  report.set("rt.telemetry.limit_pct", kOverheadLimitPct);
  report.set("rt.telemetry.within_limit_ok", within_limit);

  report.set("rt.scaling_shard8_vs_1", scaling);
  report.set("rt.fig1.differential_ok", ok);
  if (!report.write()) return 1;
  return ok ? 0 : 1;
}
