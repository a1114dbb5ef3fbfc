// The choice of controller for each BRAM, made in one place.
//
// A design's memory-organization controllers are generated once — by the
// compiler, or by hic-rt when it loads an artifact — and every consumer
// (the cycle-accurate simulator, the testbench generator, hic-nlint, the
// Verilog backend) reads the same GeneratedController records. The record
// carries the BRAM, port plan and dependency-list entries the module was
// built from, so a hic-bound sizing hint that pruned a dead entry is seen
// by everything that drives the module, not only by the generator. It also
// carries the module's port map (memorg/ports.h), filled by the generator
// as it created each net: whatever drives the module binds its ports
// through that map, never by rebuilding a net name.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "memalloc/sizing.h"
#include "memorg/deplist.h"
#include "memorg/ports.h"
#include "rtl/netlist.h"

namespace hicsync::memorg {

/// The two memory organizations of §3: arbitrated (§3.1) and event-driven
/// statically scheduled (§3.2).
enum class OrgKind { Arbitrated, EventDriven };

[[nodiscard]] const char* to_string(OrgKind k);

/// The inverse of to_string: "arbitrated" or "event-driven". Anything else
/// leaves *out alone and sets *error to "unknown organization '<name>'".
[[nodiscard]] bool parse_org(std::string_view name, OrgKind* out,
                             std::string* error);

struct ControllerOptions {
  OrgKind organization = OrgKind::Arbitrated;
  /// Arbitrated only: parallel CAM comparisons over the dependency list
  /// (true, the paper's choice) or a serial scan (ArbitratedConfig).
  bool use_cam = true;
};

/// One BRAM's generated controller and what it was generated from.
struct GeneratedController {
  OrgKind organization = OrgKind::Arbitrated;
  /// Owned by the rtl::Design passed to build_controller.
  const rtl::Module* module = nullptr;
  /// `module`'s ports: C and D pseudo-ports, port A, the read bus, and the
  /// event-driven slot register.
  ControllerPorts ports;
  /// The BRAM and port plan after any sizing hint: dead dependencies are
  /// gone and the surviving C/D pseudo-ports are renumbered densely.
  memalloc::BramInstance bram;
  memalloc::BramPortPlan plan;
  /// The dependency list baked into `module` (build_dep_entries order).
  std::vector<DepEntry> entries;
  /// What the hint removed (0 without one).
  int pruned_deps = 0;
  int pruned_ports = 0;
};

/// Generates the controller of `bram` into `design` as
/// "memorg_bram<id>". `hint`, when not null, is a hic-bound sizing hint
/// for this BRAM: its dead dependencies, and the pseudo-ports left serving
/// none, are dropped before generation.
[[nodiscard]] GeneratedController build_controller(
    rtl::Design& design, const memalloc::BramInstance& bram,
    const memalloc::BramPortPlan& plan, const ControllerOptions& options,
    const memalloc::DepListHint* hint = nullptr);

/// build_controller, without hints, for every BRAM of `map` that has a
/// port plan, in map order.
[[nodiscard]] std::vector<GeneratedController> build_controllers(
    rtl::Design& design, const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans,
    const ControllerOptions& options);

}  // namespace hicsync::memorg
