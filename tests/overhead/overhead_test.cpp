// The two zero-cost-when-off claims, measured by the paired-floor method
// (paired_floor.h) and gated at their documented thresholds:
//   - a ScopedPhase with no PassTimer attached costs one branch, under
//     10 ns per bracket (docs/OBSERVABILITY.md, "Pass profiling");
//   - a simulator with an empty TraceBus attached runs within 2 % of an
//     untraced one (docs/OBSERVABILITY.md, hic-trace).
// Registered RUN_SERIAL, so no other ctest entry shares the machine.

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "paired_floor.h"
#include "perf/profile.h"
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

}  // namespace
}  // namespace hicsync::overhead
