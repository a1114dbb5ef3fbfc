// Table 1 — "Required area for arbitrated memory organization".
//
// Regenerates the paper's table: per-BRAM controller overhead (LUT / FF /
// slices) for P/C = 1/2, 1/4, 1/8 — the compiled controller of
// netapp::fanout_source(n), the one-producer/N-consumer BRAM of the IP
// forwarding application. The scrape of the paper lost the numeric table
// cells; the prose constraints we reproduce are:
//   * FF constant across the sweep (the fixed baseline architecture),
//   * pseudo-port multiplexing adds LUTs only,
//   * the paper's baseline uses 66 FFs.

#include <cstdio>

#include "bench_util.h"
#include "paper_design.h"
#include "support/table.h"

using namespace hicsync;

int main() {
  std::printf("=== Table 1: required area, arbitrated memory organization "
              "===\n");
  std::printf("(per-BRAM overhead; paper cells lost in scrape — prose "
              "constraints: FF constant at %d, LUT grows with consumers)\n\n",
              bench::PaperReference::kArbitratedBaselineFf);

  support::TextTable table({"P/C", "LUT", "FF", "Slices", "BRAM"});
  bench::JsonBenchReport report("table1_arbitrated_area");
  int prev_lut = 0;
  int first_ff = -1;
  bool shape_ok = true;
  for (int consumers : {2, 4, 8}) {
    auto design = bench::compile_design(netapp::fanout_source(consumers),
                                        sim::OrgKind::Arbitrated);
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

  std::printf("shape checks:\n");
  std::printf("  FF constant across consumer counts: %s (measured %d, "
              "paper baseline %d)\n",
              shape_ok ? "yes" : "NO", first_ff,
              bench::PaperReference::kArbitratedBaselineFf);
  std::printf("  LUT monotonically increasing with consumers: %s\n",
              shape_ok ? "yes" : "NO");
  report.set("paper_baseline_ff", bench::PaperReference::kArbitratedBaselineFf);
  report.set("shape_ok", shape_ok);
  report.write();
  return shape_ok ? 0 : 1;
}
