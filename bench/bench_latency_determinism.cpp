// §3.1/§3.2 latency claims — hand-off latency and determinism.
//
// "the latency of consumer read accesses once the corresponding producer
// write happens is not deterministic for the arbitrated memory
// organization" (it is bus-arbitrated), while the event-driven organization
// has "accurate timing information once the write from the producer thread
// occurs."
//
// The same 1-producer → N-consumer hand-off runs on both compiled
// controllers of netapp::fanout_source(n); we report per-round
// publish→all-consumed latency (min/mean/max), plus the two ablations
// DESIGN.md calls out:
//   * round-robin vs fixed-priority arbitration on port C,
//   * the event-driven static consumer order: fanout_source(n) compiled as
//     written and with its #consumer pragma reversed, each consumer's
//     publish→c_valid wait measured on both.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/protocols.h"
#include "bench_util.h"
#include "core/compiler.h"
#include "memorg/arbitrated.h"
#include "paper_design.h"
#include "support/rng.h"
#include "support/table.h"

using namespace hicsync;

namespace {

void add_row(support::TextTable& table, const char* name, int consumers,
             const baseline::HandoffMetrics& m) {
  char mean[32];
  std::snprintf(mean, sizeof mean, "%.1f", m.mean_latency());
  table.add_row({name, std::to_string(consumers),
                 std::to_string(m.min_latency()), mean,
                 std::to_string(m.max_latency()),
                 m.latencies_identical() ? "deterministic" : "varies",
                 m.ok ? "ok" : "FAILED"});
}

/// fanout_source(consumers) with its #consumer pragma listing the
/// consumers last to first.
std::string reversed_pragma_source(int consumers) {
  std::string src = netapp::fanout_source(consumers);
  std::string forward;
  std::string reversed;
  for (int i = 0; i < consumers; ++i) {
    const std::string n = std::to_string(i);
    const std::string m = std::to_string(consumers - 1 - i);
    forward += ", [c" + n + ",v" + n + "]";
    reversed += ", [c" + m + ",v" + m + "]";
  }
  const std::string pragma = "#consumer{pkt";
  const std::size_t at = src.find(pragma + forward + "}");
  if (at == std::string::npos) {
    std::fprintf(stderr, "fanout_source has no #consumer{pkt, ...} list\n");
    std::exit(1);
  }
  src.replace(at + pragma.size(), forward.size(), reversed);
  return src;
}

/// Each consumer thread's publish→c_valid wait on the event-driven
/// controller of `source`, by thread index (thread c<k> at k).
std::vector<std::uint64_t> consumer_waits(const std::string& source,
                                          int consumers, int rounds,
                                          bool* ok) {
  auto ev = bench::compile_design(source, sim::OrgKind::EventDriven);
  const memorg::GeneratedController& ctrl = ev->controllers().front();
  const auto metrics = baseline::run_eventdriven_handoff(ctrl, rounds);
  *ok &= metrics.ok;
  std::vector<std::uint64_t> waits(static_cast<std::size_t>(consumers), 0);
  const std::vector<int>& ports = ctrl.entries.front().consumer_ports;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    for (const memalloc::PortClient& client : ctrl.plan.clients) {
      if (client.port != memalloc::LogicalPort::C ||
          client.pseudo_port != ports[i]) {
        continue;
      }
      const int k = std::atoi(client.thread.c_str() + 1);  // "c<k>"
      waits[static_cast<std::size_t>(k)] = metrics.consumer_latencies[i];
    }
  }
  return waits;
}

std::string join_waits(const std::vector<std::uint64_t>& waits) {
  std::string out;
  for (std::uint64_t w : waits) {
    out += (out.empty() ? "" : " ") + std::to_string(w);
  }
  return out;
}

}  // namespace

int main() {
  const int rounds = 8;
  std::printf("=== hand-off latency: publish -> all consumers read "
              "(%d rounds) ===\n\n", rounds);

  support::TextTable table({"organization", "consumers", "min", "mean",
                            "max", "timing", "correct"});
  bool ok = true;
  for (int consumers : {2, 4, 8}) {
    auto arb = bench::compile_design(netapp::fanout_source(consumers),
                                     sim::OrgKind::Arbitrated);
    const memorg::GeneratedController& ctrl = arb->controllers().front();
    {
      auto metrics = baseline::run_arbitrated_handoff(ctrl, rounds);
      add_row(table, "arbitrated (round robin)", consumers, metrics);
      ok &= metrics.ok;
    }
    {
      // The fairness ablation: the compiled controller's configuration,
      // regenerated with a fixed-priority arbiter.
      memorg::ArbitratedConfig cfg =
          memorg::arbitrated_config_from(ctrl.bram, ctrl.plan);
      cfg.round_robin = false;
      rtl::Design d;
      memorg::ControllerModule regenerated =
          memorg::generate_arbitrated(d, cfg, "arb_fp");
      memorg::GeneratedController fixed = ctrl;
      fixed.module = &regenerated.module;
      fixed.ports = std::move(regenerated.ports);
      auto metrics = baseline::run_arbitrated_handoff(fixed, rounds);
      add_row(table, "arbitrated (fixed priority)", consumers, metrics);
      ok &= metrics.ok;
    }
    {
      auto ev = bench::compile_design(netapp::fanout_source(consumers),
                                      sim::OrgKind::EventDriven);
      auto metrics = baseline::run_eventdriven_handoff(
          ev->controllers().front(), rounds);
      add_row(table, "event-driven (pragma order)", consumers, metrics);
      ok &= metrics.ok;
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::printf(
      "note: with every consumer saturated (the table above) the round-robin"
      "\norder repeats, so even the arbitrated organization settles into a "
      "periodic\npattern. §3.1's non-determinism appears under probabilistic"
      " traffic - below.\n\n");

  // ---- §3.1 non-determinism: two dependencies share one BRAM and the
  // consumers arrive probabilistically ("the writes happen when packets
  // arrive from a network and are probabilistic in nature").
  const char* kShared = R"(
    thread prod () {
      int a, b;
      #consumer{da, [ca0,u0], [ca1,u1]}
      a = f();
      #consumer{db, [cb0,v0], [cb1,v1]}
      b = g();
    }
    thread ca0 () { int u0; #producer{da, [prod,a]} u0 = w(a); }
    thread ca1 () { int u1; #producer{da, [prod,a]} u1 = w(a); }
    thread cb0 () { int v0; #producer{db, [prod,b]} v0 = w(b); }
    thread cb1 () { int v1; #producer{db, [prod,b]} v1 = w(b); }
  )";
  std::printf("=== two dependencies on one BRAM, probabilistic consumer "
              "readiness ===\n\n");
  support::TextTable jitter_table(
      {"organization", "dep", "min", "mean", "max", "timing"});
  std::map<std::string, bool> varies;
  for (sim::OrgKind kind :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    core::CompileOptions options;
    options.organization = kind;
    auto result = core::Compiler(options).compile(kShared);
    if (!result->ok()) {
      std::fprintf(stderr, "%s", result->diags().str().c_str());
      return 1;
    }
    auto simulator = result->make_simulator();
    std::uint64_t seed = 3;
    for (const char* t : {"ca0", "ca1", "cb0", "cb1"}) {
      auto rng = std::make_shared<support::Rng>(seed++);
      simulator->set_gate(
          t, [rng](std::uint64_t) { return rng->next_bool(0.35); });
    }
    if (!simulator->run_until_passes(20, 100000)) {
      std::fprintf(stderr, "jitter run stalled\n");
      return 1;
    }
    std::map<std::string, std::vector<std::uint64_t>> lats;
    std::map<std::string, int> seen;
    for (const auto& r : simulator->rounds()) {
      if (r.consume_cycles.size() < 2) continue;
      if (seen[r.dep_id]++ == 0) continue;  // warm-up
      lats[r.dep_id].push_back(r.completion_latency());
    }
    for (const auto& [dep, ls] : lats) {
      std::uint64_t lo = ls.front();
      std::uint64_t hi = ls.front();
      double sum = 0;
      for (auto l : ls) {
        lo = std::min(lo, l);
        hi = std::max(hi, l);
        sum += static_cast<double>(l);
      }
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.1f",
                    sum / static_cast<double>(ls.size()));
      jitter_table.add_row({sim::to_string(kind), dep, std::to_string(lo),
                            mean, std::to_string(hi),
                            lo == hi ? "deterministic" : "varies"});
      varies[std::string(sim::to_string(kind))] |= (lo != hi);
    }
  }
  std::printf("%s\n", jitter_table.str().c_str());

  // ---- §3.2 static order ablation: the #consumer pragma order is the
  // consumers' slot order, so reversing it should reverse who waits
  // longest after the write.
  std::printf("=== event-driven static order ablation: publish -> c_valid "
              "per consumer (%d rounds, longest wait) ===\n\n", rounds);
  support::TextTable order_table(
      {"consumers", "#consumer order", "wait of c0 .. c(n-1)", "longest"});
  bool order_reverses = true;
  for (int consumers : {2, 4, 8}) {
    const auto forward = consumer_waits(netapp::fanout_source(consumers),
                                        consumers, rounds, &ok);
    const auto reversed = consumer_waits(reversed_pragma_source(consumers),
                                         consumers, rounds, &ok);
    for (const auto* waits : {&forward, &reversed}) {
      const auto longest = std::max_element(waits->begin(), waits->end());
      order_table.add_row(
          {std::to_string(consumers),
           waits == &forward ? "pragma (c0 first)" : "reversed (c0 last)",
           join_waits(*waits),
           "c" + std::to_string(longest - waits->begin())});
    }
    const std::vector<std::uint64_t> mirrored(reversed.rbegin(),
                                              reversed.rend());
    order_reverses &= forward == mirrored && forward.front() != forward.back();
  }
  std::printf("%s\n", order_table.str().c_str());
  std::printf("reversing the #consumer pragma order %s the consumers' "
              "waits\n\n",
              order_reverses ? "exactly reverses" : "does NOT reverse");

  std::printf("§3.1/§3.2 conclusion check: arbitrated latency varies under "
              "probabilistic\ntraffic (bus-style arbitration), event-driven "
              "is fixed once consumers are\nready: %s\n",
              ok ? "reproduced" : "FAILED");
  bench::JsonBenchReport report("latency_determinism");
  report.set("rounds", rounds);
  report.set("handoff_correct", ok);
  report.set("arbitrated_latency_varies", varies["arbitrated"]);
  report.set("eventdriven_latency_varies", varies["event-driven"]);
  report.set("eventdriven_order_reverses", order_reverses);
  report.write();
  return ok ? 0 : 1;
}
