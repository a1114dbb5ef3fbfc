#include "rtl/testbench.h"

#include "support/strings.h"

namespace hicsync::rtl {

TestbenchRecorder::TestbenchRecorder(const Module& module)
    : module_(module), sim_(module) {}

void TestbenchRecorder::set_input(int net, std::uint64_t value) {
  sim_.set_input(net, value);
  current_.inputs[module_.net(net).name] = value;
}

void TestbenchRecorder::step() {
  sim_.settle();
  for (const Port& p : module_.ports()) {
    if (p.dir != PortDir::Output) continue;
    current_.expected[module_.net(p.net).name] = sim_.get(p.net);
  }
  sim_.step();
  trace_.push_back(std::move(current_));
  current_ = CycleRecord{};
  ++cycle_;
}

void TestbenchRecorder::reset() {
  set_input("rst", 1);
  step();
  set_input("rst", 0);
}

std::string TestbenchRecorder::emit(const std::string& tb_name) const {
  std::string out;
  out += "`timescale 1ns/1ps\n";
  out += "// Self-checking testbench generated from a recorded ModuleSim "
         "trace.\n";
  out += "module " + tb_name + ";\n";
  out += "  reg clk = 0;\n";
  out += "  always #5 clk = ~clk;\n";
  out += "  integer errors = 0;\n\n";

  // Declarations + DUT instantiation.
  for (const Port& p : module_.ports()) {
    const Net& n = module_.net(p.net);
    if (n.name == "clk") continue;
    std::string range =
        n.width > 1 ? "[" + std::to_string(n.width - 1) + ":0] " : "";
    if (p.dir == PortDir::Input) {
      out += "  reg " + range + n.name + " = 0;\n";
    } else {
      out += "  wire " + range + n.name + ";\n";
    }
  }
  out += "\n  " + module_.name() + " dut (\n";
  bool first = true;
  for (const Port& p : module_.ports()) {
    const Net& n = module_.net(p.net);
    if (!first) out += ",\n";
    out += "    ." + n.name + "(" + n.name + ")";
    first = false;
  }
  out += "\n  );\n\n";

  out += "  initial begin\n";
  for (std::size_t c = 0; c < trace_.size(); ++c) {
    const CycleRecord& rec = trace_[c];
    out += support::format("    // cycle %zu\n", c);
    out += "    @(posedge clk); #1;\n";
    for (const auto& [name, value] : rec.inputs) {
      out += "    " + name + " = " +
             support::format("64'h%llx",
                             static_cast<unsigned long long>(value)) +
             ";\n";
    }
    out += "    #3;\n";  // settle window before the sampling point
    for (const auto& [name, value] : rec.expected) {
      std::string want = support::format(
          "64'h%llx", static_cast<unsigned long long>(value));
      out += "    if (" + name + " !== " + want + ") begin "
             "$display(\"FAIL cycle " + std::to_string(c) + ": " + name +
             " = %0h, want " + want + "\", " + name +
             "); errors = errors + 1; end\n";
    }
  }
  out += "    if (errors == 0) $display(\"PASS: " +
         std::to_string(trace_.size()) + " cycles\");\n";
  out += "    else begin\n";
  out += "      $display(\"FAILED: %0d mismatches\", errors);\n";
  out += "      $fatal;\n";
  out += "    end\n";
  out += "    $finish;\n";
  out += "  end\n";
  out += "endmodule\n";
  return out;
}

}  // namespace hicsync::rtl
