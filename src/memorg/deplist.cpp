#include "memorg/deplist.h"

#include "support/bits.h"

namespace hicsync::memorg {

std::vector<DepEntry> build_dep_entries(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan) {
  std::vector<DepEntry> entries;
  for (const hic::Dependency* dep : bram.dependencies) {
    DepEntry e;
    e.id = dep->id;
    const memalloc::Placement* p = bram.find(dep->shared_var);
    e.base_address = p != nullptr ? p->base_address : 0;
    e.dependency_number = dep->dependency_number();
    const memalloc::PortClient* prod =
        plan.client_for(dep->producer_thread, memalloc::LogicalPort::D);
    e.producer_port = prod != nullptr ? prod->pseudo_port : 0;
    for (const hic::DepConsumer& c : dep->consumers) {
      const memalloc::PortClient* client =
          plan.client_for(c.thread, memalloc::LogicalPort::C);
      if (client != nullptr) e.consumer_ports.push_back(client->pseudo_port);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

int total_slots(const std::vector<DepEntry>& entries) {
  int n = 0;
  for (const DepEntry& e : entries) {
    n += 1 + static_cast<int>(e.consumer_ports.size());
  }
  return n;
}

std::vector<Slot> slot_order(const std::vector<DepEntry>& entries) {
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const int entry = static_cast<int>(i);
    slots.push_back(Slot{entry, true, entries[i].producer_port});
    for (int cp : entries[i].consumer_ports) {
      slots.push_back(Slot{entry, false, cp});
    }
  }
  return slots;
}

int counter_width(const std::vector<DepEntry>& entries) {
  int max_n = 1;
  for (const DepEntry& e : entries) {
    if (e.dependency_number > max_n) max_n = e.dependency_number;
  }
  return support::clog2_at_least1(static_cast<std::uint64_t>(max_n) + 1);
}

}  // namespace hicsync::memorg
