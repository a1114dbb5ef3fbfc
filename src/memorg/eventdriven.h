// Event-driven statically scheduled memory organization (§3.2, Fig. 3).
//
// Physical port 0 serves port A (generic single-cycle accesses). Physical
// port 1 sits behind a mux ('c' in Fig. 3) / demux ('a') network driven by
// selection logic that modulo-schedules the producer-consumer traffic at
// two levels: across dependencies (producers), and across the consumers of
// the dependency whose producer just wrote.
//
// Slot sequence per dependency d: one producer-write slot, then one slot per
// consumer in the compile-time (#consumer pragma) order. The selection
// logic blocks in each slot until the slot's owner raises its request —
// "the write by a producer is treated as an event by the consumers" — then
// advances. The slot number is exported; consumer threads treat
// `ev_c<i>` (their slot being selected) as the event that releases their
// read. Post-write latency is deterministic: consumer k of a dependency
// reads exactly k+1 accepted slots after the write.
//
// Generated port names; all but ev_p<j> are also in the returned
// ControllerPorts (memorg/ports.h):
//   clk, rst
//   a_en, a_we, a_addr, a_wdata -> a_rdata
//   p_req<j>, p_addr<j>, p_wdata<j> -> p_grant<j>, ev_p<j>
//   c_req<i>, c_addr<i>            -> ev_c<i>, c_valid<i>, bus_rdata
//   slot (selection-logic state, exported as the event value)
#pragma once

#include <string>

#include "memorg/deplist.h"
#include "memorg/ports.h"
#include "rtl/netlist.h"

namespace hicsync::memorg {

/// Baseline sizing: the slot and prev-slot registers are dimensioned for
/// this many slots, so the FF count stays constant across consumer counts
/// up to it. A schedule with more slots widens them.
inline constexpr int kEventDrivenBaselineSlots = 16;

struct EventDrivenConfig {
  int addr_width = 9;
  int data_width = 32;
  int num_consumers = 2;
  int num_producers = 1;
  std::vector<DepEntry> deps;
};

/// Generates the controller into `design` and returns it with its port
/// map.
ControllerModule generate_eventdriven(rtl::Design& design,
                                      const EventDrivenConfig& config,
                                      const std::string& name);

[[nodiscard]] EventDrivenConfig eventdriven_config_from(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan);

/// Total slot count of a config (producer + consumer slots of every dep).
[[nodiscard]] int total_slots(const EventDrivenConfig& config);

}  // namespace hicsync::memorg
