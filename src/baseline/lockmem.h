// Lock-based shared-memory controller — the conventional baseline.
//
// §1: "Current shared memory abstractions based on locks and mutual
// exclusions are difficult to use, scale, and generally result in a tedious
// and error-prone design process." To quantify that comparison
// (bench_baseline_comparison), this generates the controller a lock-based
// design would use: per-entry lock registers with owner tracking, acquire/
// release handshakes, and a round-robin arbitrated access port. The
// ordering discipline (who may write/read when) is NOT enforced — clients
// must implement it themselves with lock+flag protocols, which is exactly
// the manual, error-prone part the paper eliminates.
//
// Port names (i = client index):
//   clk, rst
//   a_en, a_we, a_addr, a_wdata -> a_rdata            (direct port 0)
//   lock_req<i>, lock_addr<i>    -> lock_grant<i>     (acquire; held until
//   unlock_req<i>                                      unlock)
//   req<i>, we<i>, addr<i>, wdata<i> -> grant<i>, valid<i>, bus_rdata
//     (granted only while client i holds the lock covering addr, or the
//      address is unlocked)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/bare.h"
#include "rtl/netlist.h"

namespace hicsync::baseline {

struct LockMemConfig {
  int addr_width = 9;
  int data_width = 32;
  int num_clients = 3;
  /// Lockable region base addresses (one lock register per entry).
  std::vector<std::uint32_t> lock_addrs;
};

/// Returns the module with its clients' ports (lock ports included).
ClientModule generate_lockmem(rtl::Design& design, const LockMemConfig& cfg,
                              const std::string& name);

}  // namespace hicsync::baseline
