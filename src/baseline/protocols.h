// Host-driven hand-off protocols over the generated controllers.
//
// A single metric — one producer publishing a value to N consumers,
// repeated for R rounds — measured on four substrates:
//   * polling over the bare wrapper (the manual flag discipline of §1),
//   * lock-based over the lock controller,
//   * the arbitrated organization (§3.1),
//   * the event-driven organization (§3.2).
// Used by bench_baseline_comparison and bench_latency_determinism; also
// exercised in tests as cross-substrate correctness checks.
//
// Every driver binds the module's ports through the map its generator
// returned — ClientModule for the bare and lock wrappers, the
// GeneratedController's ControllerPorts for the organizations — and drives
// them by net id. The two organizations share one driver and its round
// bookkeeping; they differ only in when a party may raise its request.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/bare.h"
#include "memorg/controller.h"
#include "rtl/eval.h"

namespace hicsync::baseline {

struct HandoffMetrics {
  bool ok = false;                  // every consumer saw every round's value
  std::uint64_t total_cycles = 0;
  /// Per round: publish (producer's final grant) → last consumer has data.
  std::vector<std::uint64_t> round_latencies;
  /// Shared-port operations granted (bus occupancy), including polls.
  std::uint64_t bus_grants = 0;
  /// Organization hand-offs only: per consumer of the entry, in its
  /// #consumer pragma order, the longest publish → c_valid wait over the
  /// rounds.
  std::vector<std::uint64_t> consumer_latencies;

  [[nodiscard]] double mean_latency() const;
  [[nodiscard]] std::uint64_t max_latency() const;
  [[nodiscard]] std::uint64_t min_latency() const;
  [[nodiscard]] bool latencies_identical() const;
};

/// Polling discipline on the bare wrapper (generate_bare with
/// num_clients = consumers + 1; client 0 is the producer).
/// data at address 4, generation flag at address 5.
HandoffMetrics run_polling_handoff(const ClientModule& bare, int consumers,
                                   int rounds,
                                   std::uint64_t max_cycles = 100000);

/// Lock discipline on the lock controller (generate_lockmem with
/// num_clients = consumers + 1 and a lock over address 4).
HandoffMetrics run_lock_handoff(const ClientModule& lockmem, int consumers,
                                int rounds,
                                std::uint64_t max_cycles = 100000);

/// The arbitrated organization: a compiled controller's first
/// dependency-list entry, published by its producer pseudo-port at the
/// entry's base address and read by each of its consumer pseudo-ports.
/// Throws std::invalid_argument for an event-driven controller.
HandoffMetrics run_arbitrated_handoff(const memorg::GeneratedController& ctrl,
                                      int rounds,
                                      std::uint64_t max_cycles = 100000);

/// The event-driven organization, same hand-off: each party requests in
/// its slot of the controller's schedule. A controller whose list holds
/// further entries stalls on their slots (the run reports !ok). Throws
/// std::invalid_argument for an arbitrated controller.
HandoffMetrics run_eventdriven_handoff(
    const memorg::GeneratedController& ctrl, int rounds,
    std::uint64_t max_cycles = 100000);

}  // namespace hicsync::baseline
