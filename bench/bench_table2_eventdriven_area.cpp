// Table 2 — "Required area for event-driven statically scheduled memory
// organization".
//
// Same sweep and conventions as Table 1. The paper's numeric cells were
// lost in the scrape; the reproducible shape: FF constant, LUT growing
// with consumer count, and (from comparing the two organizations in §4)
// the event-driven controller is the leaner of the two — no CAM, no
// arbiter, a static mux network.

#include <cstdio>

#include "bench_util.h"
#include "paper_design.h"
#include "support/table.h"

using namespace hicsync;

int main() {
  std::printf("=== Table 2: required area, event-driven statically "
              "scheduled memory organization ===\n\n");

  support::TextTable table({"P/C", "LUT", "FF", "Slices", "BRAM"});
  bench::JsonBenchReport report("table2_eventdriven_area");
  int prev_lut = 0;
  int first_ff = -1;
  bool shape_ok = true;
  for (int consumers : {2, 4, 8}) {
    auto design = bench::compile_design(netapp::fanout_source(consumers),
                                        sim::OrgKind::EventDriven);
    const fpga::MapResult& r = design->bram_reports().front().area;
    table.add_row({"1/" + std::to_string(consumers),
                   std::to_string(r.luts), std::to_string(r.ffs),
                   std::to_string(r.slices), std::to_string(r.bram_blocks)});
    const std::string prefix = "c" + std::to_string(consumers) + ".";
    report.set(prefix + "luts", r.luts);
    report.set(prefix + "ffs", r.ffs);
    report.set(prefix + "slices", r.slices);
    report.set(prefix + "bram_blocks", r.bram_blocks);
    if (first_ff < 0) first_ff = r.ffs;
    shape_ok &= (r.ffs == first_ff);
    shape_ok &= (r.luts > prev_lut);
    prev_lut = r.luts;
  }
  std::printf("%s\n", table.str().c_str());

  // Cross-table shape: event-driven leaner than arbitrated at each point.
  bool leaner = true;
  for (int consumers : {2, 4, 8}) {
    auto arb = bench::compile_design(netapp::fanout_source(consumers),
                                     sim::OrgKind::Arbitrated);
    auto ev = bench::compile_design(netapp::fanout_source(consumers),
                                    sim::OrgKind::EventDriven);
    leaner &= ev->bram_reports().front().area.luts <
              arb->bram_reports().front().area.luts;
  }
  std::printf("shape checks:\n");
  std::printf("  FF constant across consumer counts: %s\n",
              shape_ok ? "yes" : "NO");
  std::printf("  LUT monotonically increasing with consumers: %s\n",
              shape_ok ? "yes" : "NO");
  std::printf("  event-driven leaner than arbitrated at every point: %s\n",
              leaner ? "yes" : "NO");
  report.set("shape_ok", shape_ok);
  report.set("leaner_than_arbitrated", leaner);
  report.write();
  return (shape_ok && leaner) ? 0 : 1;
}
