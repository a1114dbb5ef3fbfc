// §1/§5 baseline — locks and manual guards vs the memory organizations.
//
// "Current shared memory abstractions based on locks and mutual exclusions
// are difficult to use, scale, and generally result in a tedious and
// error-prone design process." The comparison the paper implies but never
// tabulates: the same 1-producer → N-consumer hand-off implemented with
//   * manual flag polling over a bare shared BRAM,
//   * a lock-register controller (acquire/release + ack word),
//   * the arbitrated organization,
//   * the event-driven organization,
// measured for area (generated RTL, technology mapped), hand-off latency,
// and shared-port traffic (polling burns bus cycles). The organizations are
// the compiled controllers of netapp::fanout_source(n); the two baselines
// are built at their BRAM's address and data width.

#include <cstdio>

#include "baseline/bare.h"
#include "baseline/lockmem.h"
#include "baseline/protocols.h"
#include "bench_util.h"
#include "fpga/techmap.h"
#include "memorg/arbitrated.h"
#include "paper_design.h"
#include "support/table.h"

using namespace hicsync;

int main() {
  const int rounds = 6;
  std::printf("=== baseline comparison: 1 producer -> N consumers, "
              "%d rounds ===\n\n", rounds);

  fpga::TechMapper mapper;
  support::TextTable table({"substrate", "consumers", "LUT", "FF", "slices",
                            "mean latency", "bus ops/round", "enforced?",
                            "correct"});
  bool all_ok = true;
  bench::JsonBenchReport report("baseline_comparison");
  auto add_row = [&](const char* key, const char* name, const char* enforced,
                     int consumers, const fpga::MapResult& area,
                     const baseline::HandoffMetrics& metrics) {
    all_ok &= metrics.ok;
    const double ops_per_round =
        static_cast<double>(metrics.bus_grants) / rounds;
    const std::string p = "c" + std::to_string(consumers) + "." + key + ".";
    report.set(p + "luts", area.luts);
    report.set(p + "slices", area.slices);
    report.set(p + "mean_latency", metrics.mean_latency());
    report.set(p + "bus_ops_per_round", ops_per_round);
    report.set(p + "ok", metrics.ok);
    char mean[32], ops[32];
    std::snprintf(mean, sizeof mean, "%.1f", metrics.mean_latency());
    std::snprintf(ops, sizeof ops, "%.1f", ops_per_round);
    table.add_row({name, std::to_string(consumers), std::to_string(area.luts),
                   std::to_string(area.ffs), std::to_string(area.slices), mean,
                   ops, enforced, metrics.ok ? "ok" : "FAILED"});
  };

  for (int consumers : {2, 4, 8}) {
    auto arb = bench::compile_design(netapp::fanout_source(consumers),
                                     sim::OrgKind::Arbitrated);
    auto ev = bench::compile_design(netapp::fanout_source(consumers),
                                    sim::OrgKind::EventDriven);
    const memorg::GeneratedController& arb_ctrl = arb->controllers().front();
    // One geometry for all four substrates: the compiled BRAM's.
    const memorg::ArbitratedConfig geometry =
        memorg::arbitrated_config_from(arb_ctrl.bram, arb_ctrl.plan);
    {
      baseline::BareConfig cfg;
      cfg.addr_width = geometry.addr_width;
      cfg.data_width = geometry.data_width;
      cfg.num_clients = consumers + 1;
      rtl::Design d;
      baseline::ClientModule m = baseline::generate_bare(d, cfg, "bare");
      add_row("polling", "manual polling (bare)", "no", consumers,
              mapper.map(m),
              baseline::run_polling_handoff(m, consumers, rounds));
    }
    {
      baseline::LockMemConfig cfg;
      cfg.addr_width = geometry.addr_width;
      cfg.data_width = geometry.data_width;
      cfg.num_clients = consumers + 1;
      cfg.lock_addrs = {4, 6};
      rtl::Design d;
      baseline::ClientModule m =
          baseline::generate_lockmem(d, cfg, "lockmem");
      add_row("lockmem", "locks (lockmem)", "no", consumers, mapper.map(m),
              baseline::run_lock_handoff(m, consumers, rounds));
    }
    add_row("arbitrated", "arbitrated (§3.1)", "yes", consumers,
            arb->bram_reports().front().area,
            baseline::run_arbitrated_handoff(arb_ctrl, rounds));
    add_row("eventdriven", "event-driven (§3.2)", "yes", consumers,
            ev->bram_reports().front().area,
            baseline::run_eventdriven_handoff(ev->controllers().front(),
                                              rounds));
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "reading: the organizations spend LUTs on enforcement the baselines "
      "leave to\nthe programmer; in exchange the hand-off needs exactly "
      "1 write + N reads of\nbus traffic, while polling/locks burn extra "
      "flag reads, lock round-trips and\nack updates - and enforce "
      "nothing (the 'error-prone' cost of §1).\n");
  report.set("all_ok", all_ok);
  report.write();
  return all_ok ? 0 : 1;
}
