// Structural index over one rtl::Module, shared by every hic-nlint check.
//
// Built once per analyzed module: per-net driver/reader inventory (who
// continuously assigns, sequentially assigns, or memory-reads into each
// net), the combinational dependency graph with its strongly connected
// components (support::strongly_connected) for loop detection, constant folding over
// combinational cones, and cone-support queries (the terminal inputs/
// registers a net's combinational value depends on) used by the one-hot
// prover's exhaustive fallback.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::nlint {

class NetGraph {
 public:
  explicit NetGraph(const rtl::Module& module);
  NetGraph(const NetGraph&) = delete;
  NetGraph& operator=(const NetGraph&) = delete;

  struct NetInfo {
    std::vector<int> cont_drivers;  // indices into module.assigns()
    std::vector<int> seq_drivers;   // indices into module.seqs()
    bool mem_read = false;          // target of a memory read port
    bool is_input = false;
    bool is_output = false;
    int reads = 0;  // reference count across every expression site
  };

  [[nodiscard]] const rtl::Module& module() const { return module_; }
  [[nodiscard]] int net_count() const {
    return static_cast<int>(infos_.size());
  }
  [[nodiscard]] const NetInfo& info(int net) const {
    return infos_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] const std::string& net_name(int net) const {
    return module_.net(net).name;
  }

  /// True when anything at all drives the net (input port, continuous or
  /// sequential assign, or a memory read port).
  [[nodiscard]] bool driven(int net) const;

  /// The unique continuous driver expression, or nullptr when the net has
  /// no continuous driver or more than one (the multiple-drivers check
  /// reports the latter; every other analysis falls back to the first).
  [[nodiscard]] const rtl::RtlExpr* comb_driver(int net) const;

  /// Combinational loops: every SCC of the continuous-assign dependency
  /// graph with more than one net (or a self-edge), each listed as net ids
  /// ordered along an actual cycle, first net repeated implicitly.
  [[nodiscard]] const std::vector<std::vector<int>>& comb_cycles() const {
    return cycles_;
  }
  /// True when `net` participates in any combinational loop.
  [[nodiscard]] bool on_comb_cycle(int net) const {
    return on_cycle_[static_cast<std::size_t>(net)];
  }

  /// Folded constant value of a net when its combinational cone reduces to
  /// a constant (inputs, registers and memory reads block folding).
  [[nodiscard]] std::optional<std::uint64_t> const_value(int net) const;
  /// Folded constant value of an arbitrary expression.
  [[nodiscard]] std::optional<std::uint64_t> fold(const rtl::RtlExpr& e) const;

  /// Terminal nets of the combinational cones of `roots`: the inputs,
  /// registers, memory-read nets and undriven wires the roots' values
  /// depend on, in ascending net-id order.
  [[nodiscard]] std::vector<int> cone_support(
      const std::vector<int>& roots) const;

  [[nodiscard]] static std::uint64_t mask_width(std::uint64_t v, int width) {
    if (width >= 64) return v;
    return v & ((1ULL << width) - 1);
  }

 private:
  void index_drivers();
  void count_reads(const rtl::RtlExpr* e);
  void find_cycles();
  void fold_constants();
  /// References of the net's comb_driver() in expression order (empty
  /// without a continuous driver).
  [[nodiscard]] std::span<const int> comb_refs(int net) const;

  const rtl::Module& module_;
  std::vector<NetInfo> infos_;
  // References of every continuous assign's value, flat: assign i's are
  // refs_[ref_begin_[i], ref_begin_[i + 1]).
  std::vector<int> refs_;
  std::vector<std::size_t> ref_begin_;
  std::vector<std::vector<int>> cycles_;
  std::vector<char> on_cycle_;
  // Folding memo: has_const_[net] != 0 iff const_[net] is meaningful.
  std::vector<char> has_const_;
  std::vector<std::uint64_t> const_;
};

}  // namespace hicsync::nlint
