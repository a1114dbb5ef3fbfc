// The interface of a generated memory controller: which net is which port.
//
// §3 defines each organization by its interface — a wrapper around a
// dual-port BRAM exposing port A (direct access to physical port 0) and,
// on physical port 1, pseudo-ports sharing C (guarded consumer reads) and
// D (producer writes), whose reads return on one shared bus. The
// generators record each port's net id here as they create the net; the
// simulator, the hand-off drivers and the testbench generator drive and
// observe through these ids, so a port's name is known only to the
// generator that creates it and to the Verilog it emits.
//
// The two shared blocks every BRAM wrapper writes out — port A and the
// dual-port BRAM itself — are built here too, for the two organizations
// and for the bare and lock baselines alike.
#pragma once

#include <vector>

#include "rtl/netlist.h"

namespace hicsync::memorg {

/// Port A: a_en, a_we, a_addr, a_wdata -> a_rdata (registered read).
struct PortA {
  int en = -1, we = -1, addr = -1, wdata = -1, rdata = -1;
};

/// One consumer pseudo-port on C: c_req<i>, c_addr<i> -> c_valid<i>, plus
/// c_grant<i> (arbitrated) or ev_c<i>, the schedule selecting the port
/// (event-driven). The field the organization lacks is -1.
struct ConsumerPort {
  int req = -1, addr = -1, valid = -1, grant = -1, ev = -1;
};

/// One producer pseudo-port on D: d_req<j>, d_addr<j>, d_wdata<j> ->
/// d_grant<j> (arbitrated), p_* (event-driven).
struct ProducerPort {
  int req = -1, addr = -1, wdata = -1, grant = -1;
};

/// The port map of one generated controller.
struct ControllerPorts {
  std::vector<ConsumerPort> consumers;  // by C pseudo-port index
  std::vector<ProducerPort> producers;  // by D pseudo-port index
  PortA a;
  /// Physical port 1's registered read data, shared by the C reads.
  int bus_rdata = -1;
  /// Event-driven: the schedule's slot register (-1 when arbitrated).
  int slot = -1;
};

/// What generate_arbitrated / generate_eventdriven return: the module and
/// its port map. Converts to the module for callers that want only the
/// netlist (the Verilog backend, techmap, timing).
struct ControllerModule {
  rtl::Module& module;
  ControllerPorts ports;

  operator rtl::Module&() const { return module; }
};

/// Adds port A's four inputs and its registered read data, in that order.
[[nodiscard]] PortA add_port_a(rtl::Module& m, int addr_width,
                               int data_width);

/// Adds the BRAM "mem" (data width × 2^address width, from port A's nets):
/// port 0 is port A, written when a_en and a_we; port 1 takes its operands
/// from the port-1 registers and returns its read data in `bus_rdata`.
void add_dual_port_bram(rtl::Module& m, const PortA& a, int port1_addr,
                        int port1_we, int port1_wdata, int bus_rdata);

}  // namespace hicsync::memorg
