#include "core/tbgen.h"

#include <stdexcept>

#include "memorg/controller.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"

namespace hicsync::core {

namespace {

std::string idx(const char* base, int i) {
  return std::string(base) + std::to_string(i);
}

/// Steps until `signal` is 1 (pre-edge); throws after `max` cycles.
void wait_for(rtl::TestbenchRecorder& rec, const std::string& signal,
              int max) {
  for (int i = 0; i < max; ++i) {
    rec.sim().settle();
    if (rec.sim().get(signal) != 0) return;
    rec.step();
  }
  throw std::runtime_error("testbench generation: '" + signal +
                           "' never asserted");
}

/// Steps until the event-driven selection logic sits in `slot`; throws
/// after `max` cycles (the slot only moves when its owner fires).
void wait_for_slot(rtl::TestbenchRecorder& rec, int slot, int max) {
  for (int i = 0; i < max; ++i) {
    if (static_cast<int>(rec.sim().get("slot")) == slot) return;
    rec.step();
  }
  throw std::runtime_error("testbench generation: slot " +
                           std::to_string(slot) + " never reached");
}

}  // namespace

std::string generate_controller_testbench(const CompileResult& result,
                                          int bram_id) {
  const memorg::GeneratedController* ctrl = nullptr;
  for (const auto& c : result.controllers()) {
    if (c.bram.id == bram_id) ctrl = &c;
  }
  if (ctrl == nullptr) {
    throw std::runtime_error("testbench generation: unknown bram id " +
                             std::to_string(bram_id));
  }
  const rtl::Module* module = ctrl->module;
  const std::vector<memorg::DepEntry>& entries = ctrl->entries;
  const bool event_driven =
      ctrl->organization == memorg::OrgKind::EventDriven;

  rtl::TestbenchRecorder rec(*module);
  rec.reset();

  // One exchange per entry, walked in the §3.2 slot order (each entry's
  // producer, then its consumers in pragma order); entry i writes
  // 0xC0DE + i.
  const std::vector<memorg::Slot> slots = memorg::slot_order(entries);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const memorg::Slot& slot = slots[s];
    const memorg::DepEntry& e = entries[static_cast<std::size_t>(slot.entry)];
    const std::uint64_t value =
        0xC0DE + static_cast<std::uint64_t>(slot.entry);
    if (slot.is_producer && event_driven) {
      // Wait for the producer's slot, then fire.
      wait_for_slot(rec, static_cast<int>(s), 8);
      rec.set_input(idx("p_req", e.producer_port), 1);
      rec.set_input(idx("p_addr", e.producer_port), e.base_address);
      rec.set_input(idx("p_wdata", e.producer_port), value);
      wait_for(rec, idx("p_grant", e.producer_port), 8);
      rec.step();
      rec.set_input(idx("p_req", e.producer_port), 0);
    } else if (slot.is_producer) {
      rec.set_input(idx("d_req", e.producer_port), 1);
      rec.set_input(idx("d_addr", e.producer_port), e.base_address);
      rec.set_input(idx("d_wdata", e.producer_port), value);
      wait_for(rec, idx("d_grant", e.producer_port), 8);
      rec.step();
      rec.set_input(idx("d_req", e.producer_port), 0);
    } else {
      rec.set_input(idx("c_req", slot.port), 1);
      rec.set_input(idx("c_addr", slot.port), e.base_address);
      if (event_driven) {
        // The slot fires on the request; data valid two cycles later.
        rec.step();
        rec.set_input(idx("c_req", slot.port), 0);
        wait_for(rec, idx("c_valid", slot.port), 8);
      } else {
        wait_for(rec, idx("c_grant", slot.port), 8);
        rec.step();
        rec.set_input(idx("c_req", slot.port), 0);
        wait_for(rec, idx("c_valid", slot.port), 8);
      }
      rec.step();
    }
  }
  // A few trailing idle cycles so the tail expectations are recorded.
  rec.step();
  rec.step();

  std::string out = rtl::emit_module(*module);
  out += "\n";
  out += rec.emit("tb_" + module->name());
  return out;
}

}  // namespace hicsync::core
