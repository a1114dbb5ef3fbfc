// Structural RTL builders shared by the memory-organization generators:
// mux trees (the pseudo-port multiplexing layers of Figs. 2 and 3),
// a round-robin arbiter (§3.1 "we have implemented a simple round robin
// arbitration scheme"), fixed-priority grant logic (§3.1 port priorities
// D > C > B) and the one-hot AND-OR multiplexer.
#pragma once

#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::rtl {

/// N-to-1 mux as an expression tree: result = inputs[sel]. `inputs` must be
/// non-empty; missing power-of-two slots repeat the last input. sel must be
/// clog2(N) bits wide (at least 1).
[[nodiscard]] RtlExprPtr build_mux_tree(Module& m, int sel_net,
                                        std::vector<RtlExprPtr> inputs);

/// One-hot binary decoder: out[i] = (sel == i); returns N 1-bit wires.
[[nodiscard]] std::vector<int> build_decoder(Module& m, int sel_net, int n,
                                             const std::string& prefix);

struct ArbiterNets {
  std::vector<int> grant;  // 1-bit wire per requester, one-hot
  int any_grant = -1;      // 1-bit wire
  int pointer = -1;        // rotating-priority pointer register
};

/// Round-robin arbiter over 1-bit request nets. Grants exactly one active
/// requester per cycle; after a grant the pointer moves past the winner so
/// waiting requesters take turns ("a blocking read request on port C is
/// treated as a waiting request and can be overridden").
/// `pointer_width` overrides the pointer register width (0 = derive from
/// the request count); the arbitrated organization fixes it at the
/// max-consumer size so the flip-flop count stays constant as pseudo-ports
/// are added.
[[nodiscard]] ArbiterNets build_round_robin_arbiter(
    Module& m, const std::vector<int>& requests, const std::string& prefix,
    int pointer_width = 0);

/// Fixed-priority grant: grant[i] = requests[i] & none of requests[0..i-1].
/// Index 0 is the highest priority.
[[nodiscard]] std::vector<int> build_fixed_priority(
    Module& m, const std::vector<int>& requests, const std::string& prefix);

/// Balanced OR tree over expressions (nullptr-safe; identity 0 when empty).
[[nodiscard]] RtlExprPtr eor_tree(std::vector<RtlExprPtr> terms, int width);

/// One-hot AND-OR multiplexer: result = OR_i (select[i] ? values[i] : 0).
/// Selects must be mutually exclusive 1-bit nets. Depth is logarithmic in
/// the input count, unlike a chained 2:1 mux cascade — this is the
/// pseudo-port multiplexing layer of Figs. 2 and 3.
[[nodiscard]] RtlExprPtr build_onehot_mux(Module& m,
                                          const std::vector<int>& selects,
                                          std::vector<RtlExprPtr> values,
                                          int width);

}  // namespace hicsync::rtl
