// §4 timing — achieved clock rates vs the 125 MHz target.
//
// The paper: arbitrated 158 / 130 / ~125 MHz and event-driven 177 / 136 /
// 129 MHz for 2 / 4 / 8 consumers (synthesis unconstrained, post-P&R).
// We estimate Fmax from the technology-mapped logic depth of the compiled
// controllers of netapp::fanout_source(n) (see fpga/timing.h for the delay
// model and DESIGN.md for the substitution note). Absolute numbers depend
// on the calibration; the shape the paper's conclusions rest on is
// checked:
//   * Fmax decreases as consumers are added (both organizations),
//   * the event-driven organization is faster at every point,
//   * the gap narrows at 8 consumers (both approach the target).

#include <cstdio>

#include "bench_util.h"
#include "paper_design.h"
#include "support/table.h"

using namespace hicsync;

int main() {
  std::printf("=== In-text timing of §4: achieved Fmax per organization "
              "===\n");
  std::printf("target clock: %.0f MHz (paper); values are estimates from "
              "mapped logic depth\n\n",
              bench::PaperReference::kTargetMhz);

  const double paper_arb[3] = {bench::PaperReference::kArbFmax2,
                               bench::PaperReference::kArbFmax4,
                               bench::PaperReference::kArbFmax8};
  const double paper_ev[3] = {bench::PaperReference::kEvFmax2,
                              bench::PaperReference::kEvFmax4,
                              bench::PaperReference::kEvFmax8};

  support::TextTable table({"org", "consumers", "levels", "Fmax est (MHz)",
                            "paper (MHz)"});
  double arb_fmax[3];
  double ev_fmax[3];
  const int counts[3] = {2, 4, 8};
  for (int i = 0; i < 3; ++i) {
    auto d = bench::compile_design(netapp::fanout_source(counts[i]),
                                   sim::OrgKind::Arbitrated);
    const fpga::TimingResult& t = d->bram_reports().front().timing;
    arb_fmax[i] = t.fmax_mhz;
    char fmax[32];
    std::snprintf(fmax, sizeof fmax, "%.1f", t.fmax_mhz);
    char paper[32];
    std::snprintf(paper, sizeof paper, "%.0f", paper_arb[i]);
    table.add_row({"arbitrated", std::to_string(counts[i]),
                   std::to_string(t.logic_levels), fmax, paper});
  }
  for (int i = 0; i < 3; ++i) {
    auto d = bench::compile_design(netapp::fanout_source(counts[i]),
                                   sim::OrgKind::EventDriven);
    const fpga::TimingResult& t = d->bram_reports().front().timing;
    ev_fmax[i] = t.fmax_mhz;
    char fmax[32];
    std::snprintf(fmax, sizeof fmax, "%.1f", t.fmax_mhz);
    char paper[32];
    std::snprintf(paper, sizeof paper, "%.0f", paper_ev[i]);
    table.add_row({"event-driven", std::to_string(counts[i]),
                   std::to_string(t.logic_levels), fmax, paper});
  }
  std::printf("%s\n", table.str().c_str());

  bool decreasing = arb_fmax[0] > arb_fmax[1] && arb_fmax[1] > arb_fmax[2] &&
                    ev_fmax[0] > ev_fmax[1] && ev_fmax[1] > ev_fmax[2];
  bool ev_faster = ev_fmax[0] > arb_fmax[0] && ev_fmax[1] > arb_fmax[1] &&
                   ev_fmax[2] > arb_fmax[2];
  std::printf("shape checks:\n");
  std::printf("  Fmax decreases with consumer count: %s\n",
              decreasing ? "yes" : "NO");
  std::printf("  event-driven faster than arbitrated at every point: %s "
              "(paper ratios 1.12/1.05/1.03; measured %.2f/%.2f/%.2f)\n",
              ev_faster ? "yes" : "NO", ev_fmax[0] / arb_fmax[0],
              ev_fmax[1] / arb_fmax[1], ev_fmax[2] / arb_fmax[2]);
  std::printf("  decline 2->8 consumers: paper arb %.2fx / ev %.2fx; "
              "measured arb %.2fx / ev %.2fx\n",
              paper_arb[0] / paper_arb[2], paper_ev[0] / paper_ev[2],
              arb_fmax[0] / arb_fmax[2], ev_fmax[0] / ev_fmax[2]);
  bench::JsonBenchReport report("timing_fmax");
  for (int i = 0; i < 3; ++i) {
    const std::string c = "c" + std::to_string(counts[i]) + ".";
    report.set(c + "arbitrated_fmax_mhz", arb_fmax[i]);
    report.set(c + "eventdriven_fmax_mhz", ev_fmax[i]);
    report.set(c + "paper_arbitrated_mhz", paper_arb[i]);
    report.set(c + "paper_eventdriven_mhz", paper_ev[i]);
  }
  report.set("fmax_decreasing_with_consumers", decreasing);
  report.set("eventdriven_faster_everywhere", ev_faster);
  report.write();
  return (decreasing && ev_faster) ? 0 : 1;
}
