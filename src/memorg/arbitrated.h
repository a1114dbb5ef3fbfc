// Arbitrated memory organization (§3.1, Fig. 2).
//
// A wrapper around one dual-ported BRAM exposing four logical ports:
//   A — direct access to physical port 0 (single-cycle, non-dependent);
//   B — spare access to physical port 1, lowest priority, "allowed as long
//       as there are no current requests on port C or D";
//   C — guarded consumer reads; N pseudo-ports share the port through a
//       round-robin arbiter; a read is eligible only when the CAM-matched
//       dependency-list entry has a countdown greater than zero;
//   D — producer writes, highest priority; a write is eligible when the
//       matched entry's countdown is zero (the previous produce-consume
//       cycle completed — this enforces the §3.1 guard that an address
//       stays guarded until all dependent reads have happened), and it
//       reloads the countdown with the entry's dependency number.
//
// Flip-flop inventory is fixed by kArbitratedBaselineConsumers (pointer,
// eligibility and grant-id registers sized for that many consumers), so
// adding pseudo-ports "does not contribute to the flip-flop count but only
// to the LUT count" exactly as Table 1's prose states. Timing on port C is
// non-deterministic: the round-robin arbiter decides the delay after the
// producer's write.
//
// Generated port names (i = pseudo-port index); every port but B is also
// in the returned ControllerPorts (memorg/ports.h):
//   clk, rst
//   a_en, a_we, a_addr, a_wdata  ->  a_rdata (registered)
//   b_en, b_we, b_addr, b_wdata  ->  b_grant, b_valid, bus_rdata
//   c_req<i>, c_addr<i>          ->  c_grant<i>, c_valid<i>, bus_rdata
//   d_req<j>, d_addr<j>, d_wdata<j> -> d_grant<j>
#pragma once

#include <string>

#include "memorg/deplist.h"
#include "memorg/ports.h"
#include "rtl/netlist.h"

namespace hicsync::memorg {

/// Baseline sizing: the arbiter pointer, eligibility and grant-id
/// registers are dimensioned for this many consumers (Table 1's largest
/// sweep point), so the FF count stays constant up to it. A controller
/// with more consumers widens them.
inline constexpr int kArbitratedBaselineConsumers = 8;

struct ArbitratedConfig {
  int addr_width = 9;
  int data_width = 32;
  int num_consumers = 2;  // pseudo-ports on C
  int num_producers = 1;  // pseudo-ports on D
  std::vector<DepEntry> deps;
  /// Parallel CAM comparisons over the dependency list (the paper's
  /// choice). When false, a serial scan shares one comparator per
  /// pseudo-port across entries: fewer LUTs, up to |deps| extra cycles of
  /// lookup latency (`hicc --no-cam`; the ablation bench_deplist_scaling
  /// compiles).
  bool use_cam = true;
  /// Round-robin arbitration on ports C and D (the paper implements "a
  /// simple round robin arbitration scheme"). When false, fixed priority
  /// (pseudo-port 0 highest) — the fairness ablation
  /// bench_latency_determinism regenerates from a compiled controller's
  /// arbitrated_config_from; the compiler always builds round robin.
  bool round_robin = true;
};

/// Generates the wrapper module into `design` and returns it with its port
/// map. The module is flat (no instances) so it can run under
/// rtl::ModuleSim.
ControllerModule generate_arbitrated(rtl::Design& design,
                                     const ArbitratedConfig& config,
                                     const std::string& name);

/// Derives a config from an allocated BRAM and its port plan.
[[nodiscard]] ArbitratedConfig arbitrated_config_from(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan);

}  // namespace hicsync::memorg
