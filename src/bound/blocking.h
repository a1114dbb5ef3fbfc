// hic-bound client 2: static worst-case blocking bounds per consumer.
//
// hic-verify computes the exact worst-case number of steps a consumer can
// spend blocked at its guarded read by enumerating the blocked region of
// the reachable state graph — unaffordable past a few dozen threads. This
// client answers the same boundedness question (and a sound steps/cycles
// bound) in polynomial time:
//
// Freeze consumer c at its read of d0. The read stays blocked only while
// its guard never becomes enabled, which pins the abstract controller
// state (countdown(d0) = 0 for arbitrated — so no produce or consume of
// d0 happens at all; the schedule of c's controller parked short of c's
// slot for event-driven — so no op of that controller happens at all).
// Blocking is unbounded exactly when some other thread can take
// infinitely many steps under that freeze. A greatest-fixpoint liveness
// computation over the thread CFGs (with the Exit→Entry restart edge)
// over-approximates "can move infinitely often":
//   * thread t is live iff its CFG restricted to usable nodes has a cycle;
//   * arbitrated: an op on d0 is never usable; produce(e) is usable iff
//     some consumer ≠ c can cycle through a consume of e (the countdown
//     must drain each round — the abstract model does not track *which*
//     consumer decrements, so one live consumer suffices); consume(e) is
//     usable iff e's producer is live and its produce is usable;
//   * event-driven: an op on controller X is usable iff every slot owner
//     of X is live (a full schedule round needs every slot exercised);
//     c's own controller is never usable.
// Every rule over-approximates recurrence in hic-verify's semantics, so
// "no thread live" soundly implies the checker's bounded verdict, and the
// reported steps bound (product of the other threads' CFG sizes and the
// controller state counts, saturating) dominates the checker's exact
// longest blocked path. The differential suite asserts both containments
// on every fixture where the checker terminates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bound/counters.h"
#include "verify/model.h"

namespace hicsync::bound {

/// Static blocking bound of one consumer endpoint.
struct BlockingStaticBound {
  std::string dep;
  std::string thread;
  int consumer = -1;
  bool bounded = false;
  /// Sound upper bound on steps other threads take while this consumer
  /// stays blocked; kInf when the (finite) bound saturated 64 bits.
  std::uint64_t steps = 0;
  /// (steps + 1) * (fairness window + 1), saturating — comparable to
  /// verify::BlockingBound::cycles.
  std::uint64_t cycles = 0;
  bool saturated = false;
  std::string note;  // why unbounded, when !bounded
  std::vector<std::string> provenance;  // fixpoint trace (--explain)
};

/// Runs the blocking client for every consumer endpoint of `model`. Each
/// thread's cycle analysis runs once per usable-op signature and is shared
/// across endpoints and fixpoint rounds; `cycle_scans`, when given,
/// receives the number of those runs.
[[nodiscard]] std::vector<BlockingStaticBound> blocking_bounds(
    const verify::ProgramModel& model, bool explain,
    std::uint64_t* cycle_scans = nullptr);

}  // namespace hicsync::bound
