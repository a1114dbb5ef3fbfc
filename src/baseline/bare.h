// Bare shared-BRAM wrapper — the "manual guard" baseline substrate.
//
// No dependency enforcement at all: a direct port plus a round-robin
// arbitrated port. Synchronization is entirely up to the clients; the
// classic hand-written discipline polls a flag word (producer writes data,
// then bumps a generation flag; consumers poll the flag, then read the
// data). protocols.h drives that discipline so the cost and fragility of
// the manual approach can be measured against the generated organizations.
#pragma once

#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::baseline {

/// One client of a baseline wrapper: req<i>, we<i>, addr<i>, wdata<i> ->
/// grant<i>, valid<i>; on the lock controller also lock_req<i>,
/// lock_addr<i>, unlock_req<i> -> lock_grant<i> (else -1).
struct ClientPort {
  int req = -1, we = -1, addr = -1, wdata = -1, grant = -1, valid = -1;
  int lock_req = -1, lock_addr = -1, unlock_req = -1, lock_grant = -1;
};

/// What generate_bare / generate_lockmem return: the module, its clients'
/// ports and the shared read bus. Converts to the module for callers that
/// want only the netlist.
struct ClientModule {
  rtl::Module& module;
  std::vector<ClientPort> clients;
  int bus_rdata = -1;

  operator rtl::Module&() const { return module; }
};

struct BareConfig {
  int addr_width = 9;
  int data_width = 32;
  int num_clients = 3;
};

/// Port names: clk, rst; a_en/a_we/a_addr/a_wdata -> a_rdata;
/// req<i>/we<i>/addr<i>/wdata<i> -> grant<i>, valid<i>, bus_rdata.
ClientModule generate_bare(rtl::Design& design, const BareConfig& cfg,
                           const std::string& name);

}  // namespace hicsync::baseline
