// The observability cost claims, measured by the paired-floor method
// (paired_floor.h) and gated at their documented thresholds:
//   - a ScopedPhase with no PassTimer attached costs one branch, under
//     10 ns per bracket (docs/OBSERVABILITY.md, "Pass profiling");
//   - a simulator with an empty TraceBus attached runs within 2 % of an
//     untraced one (docs/OBSERVABILITY.md, hic-trace);
//   - an rt::Service with request telemetry on serves within 5 % of the
//     CPU it needs with telemetry off (docs/OBSERVABILITY.md, "Runtime
//     telemetry").
// Registered RUN_SERIAL, so no other ctest entry shares the machine.

#include <gtest/gtest.h>

#include <memory>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "paired_floor.h"
#include "perf/profile.h"
#include "rt/service.h"
#include "rt/store.h"
#include "trace/bus.h"

namespace hicsync::overhead {
namespace {

TEST(Overhead, DisabledProfilerIsABranch) {
  std::printf("pinned to core %d\n", pin_to_current_core());
  constexpr int kBrackets = 1 << 16;
  perf::PassTimer* timer = nullptr;
  keep(&timer);  // the compiler may not assume the timer is null
  std::vector<double> ns_per_bracket;
  for (const std::vector<double>& round : round_floors(
           {[&] {
             for (int i = 0; i < kBrackets; ++i) {
               perf::ScopedPhase phase(timer, "off");
               keep(&phase);
             }
           }},
           kMinRounds, 5)) {
    ns_per_bracket.push_back(round[0] / kBrackets);
  }
  EXPECT_LT(print_median("disabled ScopedPhase bracket", ns_per_bracket, "ns",
                         10.0),
            10.0);
}

TEST(Overhead, EmptyTraceBusUnder2Pct) {
  std::printf("pinned to core %d\n", pin_to_current_core());
  auto result = core::Compiler().compile(netapp::fanout_source(4));
  ASSERT_TRUE(result->ok()) << result->diags().str();
  // One simulator, with the bus attached for the treated parts only: two
  // simulator objects differ in memory layout, which shifts their step
  // cost by a few percent either way from process to process.
  auto simulator = result->make_simulator();
  trace::TraceBus bus;  // no sinks: active() is false
  auto steps = [&](trace::TraceBus* attached) {
    simulator->set_trace(attached);
    for (int i = 0; i < 400; ++i) simulator->step();
  };
  steps(nullptr);  // warm up before the first timed part
  std::vector<double> overhead_pct;
  for (const std::vector<double>& round :
       round_floors({[&] { steps(nullptr); }, [&] { steps(&bus); }}, 31, 15)) {
    overhead_pct.push_back(100.0 * (round[1] - round[0]) / round[0]);
  }
  EXPECT_LE(
      print_median("empty-trace-bus overhead", overhead_pct, "%", 2.0), 2.0);
}

TEST(Overhead, RtTelemetryUnder5Pct) {
  std::printf("pinned to core %d\n", pin_to_current_core());
  core::CompileOptions compile;
  compile.source_name = "fig1.hic";
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler(compile).compile(source);
  ASSERT_TRUE(compiled->ok()) << compiled->diags().str();
  rt::ProgramStore store;
  rt::ArtifactError error;
  auto program =
      store.load_bytes(rt::emit_artifact(*compiled, source), &error);
  ASSERT_NE(program, nullptr) << error.str();

  // Each timed part serves 512 sessions of open, produce, 3-pass run and
  // consume over 4 shards and drains; part 1 has telemetry on. A fresh
  // service is started (and the last one shut down) untimed before each
  // part, so the window holds the traffic alone. The shard workers inherit
  // the pin, so the whole service shares one core and process CPU time is
  // the work it did. The slow threshold is out of reach: the claim is
  // about span capture, not forensics.
  std::unique_ptr<rt::Service> service;
  std::uint64_t failed = 0;
  auto start = [&](std::size_t part) {
    if (service != nullptr) failed += service->stats().failed;
    service.reset();
    rt::ServiceOptions options;
    options.shards = 4;
    options.telemetry.enabled = part == 1;
    options.telemetry.slow_threshold_us = 60ULL * 1000 * 1000;
    service = std::make_unique<rt::Service>(program, options);
  };
  auto serve = [&] {
    for (std::uint64_t i = 0; i < 512; ++i) {
      const std::uint64_t session = service->open_session();
      rt::BufferHandle input = service->buffers().allocate(1);
      input[0] = i % 8;
      service->produce(session, std::move(input));
      service->run(session, 3);
      service->consume(session, {});
    }
    service->drain();
  };
  start(0);  // warm up before the first timed part
  serve();
  std::vector<double> overhead_pct;
  for (const std::vector<double>& round :
       round_floors({serve, serve}, 21, 9, CLOCK_PROCESS_CPUTIME_ID, start)) {
    overhead_pct.push_back(100.0 * (round[1] - round[0]) / round[0]);
  }
  start(0);  // counts the last part's failures
  EXPECT_EQ(failed, 0u);
  EXPECT_LE(print_median("rt telemetry overhead", overhead_pct, "%", 5.0),
            5.0);
}

}  // namespace
}  // namespace hicsync::overhead
