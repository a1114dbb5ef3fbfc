// Self-checking Verilog testbench generation.
//
// Records a stimulus/response trace while driving a module through
// rtl::ModuleSim, then emits a Verilog-2001 testbench that replays the
// inputs and asserts every recorded output value — so the generated
// controllers can be cross-checked in any HDL simulator against the C++
// evaluator's semantics.
//
// Timing convention matching ModuleSim: inputs are driven shortly after
// the rising edge and held for the whole cycle; outputs are sampled just
// before the next rising edge.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtl/eval.h"
#include "rtl/netlist.h"

namespace hicsync::rtl {

class TestbenchRecorder {
 public:
  explicit TestbenchRecorder(const Module& module);

  /// Access the underlying simulator for reads (e.g. wait loops).
  [[nodiscard]] ModuleSim& sim() { return sim_; }

  /// Sets an input and records it, under its net's name, for replay.
  void set_input(int net, std::uint64_t value);
  void set_input(const std::string& name, std::uint64_t value) {
    set_input(sim_.find_net(name), value);
  }

  /// Ends the cycle: samples every output port (post-settle values become
  /// the expectations), then clocks the simulator.
  void step();

  /// Applies reset for one recorded cycle.
  void reset();

  [[nodiscard]] std::uint64_t cycles() const { return cycle_; }

  /// Emits the testbench module `tb_name` instantiating the recorded DUT.
  /// The testbench $display's PASS/FAIL and finishes with $fatal on the
  /// first mismatch.
  [[nodiscard]] std::string emit(const std::string& tb_name) const;

 private:
  struct CycleRecord {
    std::map<std::string, std::uint64_t> inputs;   // changes this cycle
    std::map<std::string, std::uint64_t> expected; // sampled outputs
  };

  const Module& module_;
  ModuleSim sim_;
  std::vector<CycleRecord> trace_;
  CycleRecord current_;
  std::uint64_t cycle_ = 0;
};

}  // namespace hicsync::rtl
