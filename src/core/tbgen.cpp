#include "core/tbgen.h"

#include <stdexcept>

#include "memorg/controller.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"

namespace hicsync::core {

namespace {

/// Steps until `net` is 1 (pre-edge); throws after `max` cycles.
void wait_for(rtl::TestbenchRecorder& rec, const rtl::Module& module,
              int net, int max) {
  for (int i = 0; i < max; ++i) {
    rec.sim().settle();
    if (rec.sim().get(net) != 0) return;
    rec.step();
  }
  throw std::runtime_error("testbench generation: '" +
                           module.net(net).name + "' never asserted");
}

/// Steps until the event-driven selection logic (register `slot_net`)
/// sits in `slot`; throws after `max` cycles (the slot only moves when its
/// owner fires).
void wait_for_slot(rtl::TestbenchRecorder& rec, int slot_net, int slot,
                   int max) {
  for (int i = 0; i < max; ++i) {
    if (static_cast<int>(rec.sim().get(slot_net)) == slot) return;
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
  const rtl::Module& module = *ctrl->module;
  const memorg::ControllerPorts& ports = ctrl->ports;
  const std::vector<memorg::DepEntry>& entries = ctrl->entries;
  const bool event_driven =
      ctrl->organization == memorg::OrgKind::EventDriven;

  rtl::TestbenchRecorder rec(module);
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
    if (slot.is_producer) {
      const memorg::ProducerPort& p =
          ports.producers[static_cast<std::size_t>(e.producer_port)];
      // An event-driven producer waits for its slot, then fires.
      if (event_driven) wait_for_slot(rec, ports.slot, static_cast<int>(s), 8);
      rec.set_input(p.req, 1);
      rec.set_input(p.addr, e.base_address);
      rec.set_input(p.wdata, value);
      wait_for(rec, module, p.grant, 8);
      rec.step();
      rec.set_input(p.req, 0);
    } else {
      const memorg::ConsumerPort& c =
          ports.consumers[static_cast<std::size_t>(slot.port)];
      rec.set_input(c.req, 1);
      rec.set_input(c.addr, e.base_address);
      if (event_driven) {
        // The slot fires on the request; data valid two cycles later.
        rec.step();
        rec.set_input(c.req, 0);
        wait_for(rec, module, c.valid, 8);
      } else {
        wait_for(rec, module, c.grant, 8);
        rec.step();
        rec.set_input(c.req, 0);
        wait_for(rec, module, c.valid, 8);
      }
      rec.step();
    }
  }
  // A few trailing idle cycles so the tail expectations are recorded.
  rec.step();
  rec.step();

  std::string out = rtl::emit_module(module);
  out += "\n";
  out += rec.emit("tb_" + module.name());
  return out;
}

}  // namespace hicsync::core
