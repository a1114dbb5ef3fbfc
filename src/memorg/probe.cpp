#include "memorg/probe.h"

#include <string>

namespace hicsync::memorg {

ControllerProbe::ControllerProbe(ProbeConfig config, const rtl::ModuleSim& sim)
    : config_(config) {
  // Arbitrated controllers grant reads explicitly; the event-driven
  // schedule accepts a read when the consumer's slot is selected (ev_c<i>)
  // while its request is up.
  for (int i = 0; i < config_.num_consumers; ++i) {
    const std::string idx = std::to_string(i);
    consumers_.push_back(
        config_.event_driven
            ? ConsumerNets{sim.find_net("ev_c" + idx),
                           sim.find_net("c_req" + idx)}
            : ConsumerNets{sim.find_net("c_grant" + idx), -1});
  }
  const std::string producer_grant =
      config_.event_driven ? "p_grant" : "d_grant";
  for (int j = 0; j < config_.num_producers; ++j) {
    producer_grants_.push_back(
        sim.find_net(producer_grant + std::to_string(j)));
  }
  if (config_.event_driven) slot_ = sim.find_net("slot");
}

void ControllerProbe::sample(const rtl::ModuleSim& sim, std::uint64_t cycle,
                             trace::TraceBus& bus) {
  trace::Event e;
  e.cycle = cycle;
  e.controller = config_.controller;
  e.kind = trace::EventKind::ArbWin;

  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    const ConsumerNets& c = consumers_[i];
    if (sim.get(c.won) != 0 && (c.req < 0 || sim.get(c.req) != 0)) {
      e.port = trace::PortKind::C;
      e.pseudo_port = static_cast<int>(i);
      bus.emit(e);
    }
  }
  for (std::size_t j = 0; j < producer_grants_.size(); ++j) {
    if (sim.get(producer_grants_[j]) != 0) {
      e.port = trace::PortKind::D;
      e.pseudo_port = static_cast<int>(j);
      bus.emit(e);
    }
  }

  if (slot_ >= 0) {
    auto slot = static_cast<std::int64_t>(sim.get(slot_));
    if (slot != last_slot_) {
      last_slot_ = slot;
      trace::Event se;
      se.cycle = cycle;
      se.controller = config_.controller;
      se.kind = trace::EventKind::SlotAdvance;
      se.value = slot;
      bus.emit(se);
    }
  }
}

}  // namespace hicsync::memorg
