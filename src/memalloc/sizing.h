// Memory residency and dependency-list sizing.
//
// §3: "the memory allocation process takes into account available physical
// memory size (eg: BRAM size of 18 Kb) and number of ports (eg: dual ports
// on each BRAM)". This module decides which symbols live in BRAM rather than
// registers (the allocator, the simulator and the rt artifact all ask), and
// applies hic-bound's sizing hints to a BRAM's dependency list before the
// memory-organization generators build its controller.
#pragma once

#include <string>
#include <vector>

#include "hic/sema.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"

namespace hicsync::memalloc {

/// Whether a symbol is memory-resident (BRAM) rather than a register:
/// arrays always; scalars when they participate in an inter-thread
/// dependency (the producer's value must be observable by other threads).
[[nodiscard]] bool is_memory_resident(const hic::Symbol& sym);

/// Total BRAM primitives a naive one-symbol-per-BRAM mapping would use —
/// the upper bound the allocator must beat.
[[nodiscard]] int naive_bram_bound(const hic::Sema& sema);

/// Machine-readable sizing hint for one BRAM's dependency list, produced
/// by hic-bound's occupancy analysis and applied by apply_dep_list_hint,
/// which memorg::build_controller calls: `occupancy_hi` is a *sound*
/// static upper bound on simultaneously open dependency-list entries, and
/// `dead_deps` names the dependencies whose produce *and* every consume are
/// unreachable — their CAM entries (and, event-driven, schedule slots) are
/// dead weight the generators can drop.
struct DepListHint {
  int bram_id = -1;
  /// Entries memalloc would bake in without the hint (= |dependencies|).
  int capacity = 0;
  /// Static upper bound on entries simultaneously open (countdown > 0).
  int occupancy_hi = 0;
  /// Dependencies with no reachable produce or consume site; safe to drop
  /// from the dependency list entirely.
  std::vector<std::string> dead_deps;

  [[nodiscard]] bool shrinks() const {
    return occupancy_hi < capacity || !dead_deps.empty();
  }
};

/// A BRAM + port plan with a DepListHint applied: fully-dead dependencies
/// are removed from the dependency list, and C/D pseudo-ports that served
/// only removed dependencies are dropped (surviving pseudo-ports are
/// renumbered densely so the generators' port indices stay contiguous).
struct PrunedBram {
  BramInstance bram;
  BramPortPlan plan;
  int removed_deps = 0;
  int removed_consumer_ports = 0;
  int removed_producer_ports = 0;
};

/// Applies `hint` to (`bram`, `plan`). Only the hint's `dead_deps` are
/// removed — a dependency with unreachable produce but reachable consumes
/// keeps its entry, so the consumer's guard still blocks exactly as the
/// unpruned controller would.
[[nodiscard]] PrunedBram apply_dep_list_hint(const BramInstance& bram,
                                             const BramPortPlan& plan,
                                             const DepListHint& hint);

}  // namespace hicsync::memalloc
