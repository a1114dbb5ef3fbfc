// hic-trace probe over a generated memory-organization netlist.
//
// Samples the controller's per-cycle outputs (grant lines, the event-driven
// selection slot) from its rtl::ModuleSim after the combinational settle
// and publishes controller-side events (ArbWin per granted pseudo-port,
// SlotAdvance on slot changes) onto a TraceBus. This is the authoritative
// "who won the port this cycle" record: it reads the same signals the
// emitted Verilog exposes, independent of the thread-side bookkeeping.
// Those nets are resolved to handles once, when the probe is built.
#pragma once

#include <vector>

#include "rtl/eval.h"
#include "trace/bus.h"

namespace hicsync::memorg {

struct ProbeConfig {
  int controller = -1;        // BRAM id stamped onto events
  bool event_driven = false;  // selects d_grant vs p_grant + slot sampling
  int num_consumers = 0;
  int num_producers = 0;
};

class ControllerProbe {
 public:
  /// Binds the sampled nets of `sim`'s module (throws std::runtime_error if
  /// one is missing).
  ControllerProbe(ProbeConfig config, const rtl::ModuleSim& sim);

  /// Call once per cycle after the netlist settled, before the clock edge;
  /// `sim` simulates the module the probe was built for.
  void sample(const rtl::ModuleSim& sim, std::uint64_t cycle,
              trace::TraceBus& bus);

  /// Forgets sampled history (the remembered slot), so a recycled
  /// simulation re-reports the initial SlotAdvance (SystemSim::reset).
  void reset() { last_slot_ = -1; }

 private:
  ProbeConfig config_;
  // A consumer's read is won when `won` is high — and, event-driven, its
  // request `req` too (else -1).
  struct ConsumerNets {
    int won = -1;
    int req = -1;
  };
  std::vector<ConsumerNets> consumers_;
  std::vector<int> producer_grants_;
  int slot_ = -1;  // event-driven only
  std::int64_t last_slot_ = -1;
};

}  // namespace hicsync::memorg
