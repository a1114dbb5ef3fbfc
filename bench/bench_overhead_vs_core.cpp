// §4 overhead — controller area relative to the core forwarding function.
//
// The paper: the two-port IP forwarding app totals 5430 slices, ~1000 of
// which are the core forwarding function, and "depending upon the
// partitioning (of threads) and complexity of the functions the area
// overhead can vary from 5-20%. Hence this overhead needs to be considered
// a priori in the design partitioning process."
//
// We regenerate the forwarding core (netapp/forwarding_rtl), compile the
// fan-out controllers of both organizations, and report each one's
// overhead twice: against our measured core and against the paper's
// 1000-slice figure.

#include <cstdio>

#include "bench_util.h"
#include "fpga/techmap.h"
#include "netapp/forwarding_rtl.h"
#include "paper_design.h"
#include "support/table.h"

using namespace hicsync;

int main() {
  std::printf("=== §4 overhead: controller slices vs the core forwarding "
              "function ===\n\n");

  fpga::TechMapper mapper;
  rtl::Design core_design;
  auto core = mapper.map(netapp::generate_forwarding_core(
      core_design, netapp::ForwardingCoreConfig{}, "fwd_core"));
  std::printf("regenerated two-port forwarding core: LUT %d  FF %d  "
              "slices %d  BRAM %d\n",
              core.luts, core.ffs, core.slices, core.bram_blocks);
  std::printf("paper core figure: ~%d slices (of %d total app slices)\n\n",
              bench::PaperReference::kCoreSlices,
              bench::PaperReference::kAppSlices);

  support::TextTable table({"org", "P/C", "ctrl slices", "% of our core",
                            "% of paper core"});
  bool in_band_any = false;
  double lo = 1e9;
  double hi = 0;
  auto add = [&](const char* org, int consumers, int slices) {
    double pct_ours =
        100.0 * slices / (core.slices > 0 ? core.slices : 1);
    double pct_paper =
        100.0 * slices / bench::PaperReference::kCoreSlices;
    char a[32], b[32];
    std::snprintf(a, sizeof a, "%.1f%%", pct_ours);
    std::snprintf(b, sizeof b, "%.1f%%", pct_paper);
    table.add_row({org, "1/" + std::to_string(consumers),
                   std::to_string(slices), a, b});
    lo = std::min(lo, pct_paper);
    hi = std::max(hi, pct_paper);
    in_band_any |= pct_paper >= bench::PaperReference::kOverheadLowPct &&
                   pct_paper <= bench::PaperReference::kOverheadHighPct;
  };
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    for (int consumers : {2, 4, 8}) {
      auto d = bench::compile_design(netapp::fanout_source(consumers), org);
      add(sim::to_string(org), consumers,
          d->bram_reports().front().area.slices);
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("paper claim: overhead varies %.0f-%.0f%% of the core; "
              "measured span vs the paper's core: %.1f-%.1f%%\n",
              bench::PaperReference::kOverheadLowPct,
              bench::PaperReference::kOverheadHighPct, lo, hi);
  std::printf("per-BRAM overhead must be budgeted a priori in design "
              "partitioning (the paper's conclusion): %s\n",
              in_band_any ? "confirmed in band" : "outside the paper band");
  bench::JsonBenchReport report("overhead_vs_core");
  report.set("core_luts", core.luts);
  report.set("core_ffs", core.ffs);
  report.set("core_slices", core.slices);
  report.set("paper_core_slices", bench::PaperReference::kCoreSlices);
  report.set("overhead_pct_vs_paper_core_min", lo);
  report.set("overhead_pct_vs_paper_core_max", hi);
  report.set("paper_band_low_pct", bench::PaperReference::kOverheadLowPct);
  report.set("paper_band_high_pct", bench::PaperReference::kOverheadHighPct);
  report.set("in_paper_band", in_band_any);
  report.write();
  return 0;
}
