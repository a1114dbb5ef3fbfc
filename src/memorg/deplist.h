// The dependency list of §3.1.
//
// "Each entry in the list has two parts. The first part contains a
// dependency number, which is the number of threads that are dependent on
// this producer. ... The second part of the entry is the base address of
// the data structure in BRAM." Entries are determined at design time by
// static analysis and populated at configuration time — our generators bake
// them in as constants; only the per-entry countdown counter is dynamic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memalloc/allocator.h"
#include "memalloc/portplan.h"

namespace hicsync::memorg {

struct DepEntry {
  std::string id;               // dependency id (e.g. "mt1")
  std::uint32_t base_address = 0;
  int dependency_number = 0;    // number of consumer threads
  int producer_port = 0;        // pseudo-port index on port D
  std::vector<int> consumer_ports;  // pseudo-port indices on port C, in
                                    // static (pragma) order
};

/// Builds the dependency-list entries of one BRAM from its allocation and
/// port plan. Entry order follows the BRAM's dependency order.
[[nodiscard]] std::vector<DepEntry> build_dep_entries(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan);

/// Bits needed for the per-entry countdown counter (fits the largest
/// dependency number, at least 1 bit).
[[nodiscard]] int counter_width(const std::vector<DepEntry>& entries);

/// Length of the §3.2 modulo schedule over these entries: one producer
/// slot plus one slot per consumer, per dependency. Shared by the
/// event-driven generator and the coverage model's slot bins.
[[nodiscard]] int total_slots(const std::vector<DepEntry>& entries);

/// One slot of the §3.2 modulo schedule: whose turn it is.
struct Slot {
  int entry = 0;             // index into the entries the order was built from
  bool is_producer = false;
  int port = 0;              // pseudo-port index on D (producer) or C
};

/// The §3.2 slot order over `entries`: per entry, its producer slot, then
/// one slot per consumer in pragma order. Slot s of the event-driven
/// controller is element s; the generator, the simulator and the
/// testbench generator all read it from here.
[[nodiscard]] std::vector<Slot> slot_order(
    const std::vector<DepEntry>& entries);

}  // namespace hicsync::memorg
