#include "memorg/eventdriven.h"

#include <algorithm>

#include "rtl/builder.h"
#include "support/bits.h"

namespace hicsync::memorg {

using rtl::ebin;
using rtl::econst;
using rtl::emux;
using rtl::enot;
using rtl::eref;
using rtl::RtlExprPtr;
using rtl::RtlOp;

int total_slots(const EventDrivenConfig& cfg) { return total_slots(cfg.deps); }

ControllerModule generate_eventdriven(rtl::Design& design,
                                      const EventDrivenConfig& cfg,
                                      const std::string& name) {
  ControllerModule out{design.add_module(name), {}};
  rtl::Module& m = out.module;
  ControllerPorts& ports = out.ports;
  ports.consumers.resize(static_cast<std::size_t>(cfg.num_consumers));
  ports.producers.resize(static_cast<std::size_t>(cfg.num_producers));
  auto cp = [&](int i) -> ConsumerPort& {
    return ports.consumers[static_cast<std::size_t>(i)];
  };
  auto pp = [&](int j) -> ProducerPort& {
    return ports.producers[static_cast<std::size_t>(j)];
  };
  const int aw = cfg.addr_width;
  const int dw = cfg.data_width;
  const int nc = cfg.num_consumers;
  const int np = cfg.num_producers;
  const int nslots = std::max(1, total_slots(cfg));
  const int sw = support::clog2_at_least1(
      static_cast<std::uint64_t>(std::max(nslots, kEventDrivenBaselineSlots)));

  (void)m.clk();
  (void)m.rst();

  // ---- Port A: direct. ----
  ports.a = add_port_a(m, aw, dw);

  // ---- Producer ports. ----
  std::vector<int> ev_p(static_cast<std::size_t>(np));
  for (int j = 0; j < np; ++j) {
    const std::string n = std::to_string(j);
    pp(j).req = m.add_input("p_req" + n, 1);
    pp(j).addr = m.add_input("p_addr" + n, aw);
    pp(j).wdata = m.add_input("p_wdata" + n, dw);
    pp(j).grant = m.add_output("p_grant" + n, 1);
    ev_p[static_cast<std::size_t>(j)] = m.add_output("ev_p" + n, 1);
  }

  // ---- Consumer ports. ----
  for (int i = 0; i < nc; ++i) {
    const std::string n = std::to_string(i);
    cp(i).req = m.add_input("c_req" + n, 1);
    cp(i).addr = m.add_input("c_addr" + n, aw);
    cp(i).ev = m.add_output("ev_c" + n, 1);
    cp(i).valid = m.add_output("c_valid" + n, 1);
  }
  ports.bus_rdata = m.add_output_reg("bus_rdata", dw);

  // ---- Selection logic state. ----
  const int slot = ports.slot = m.add_output_reg("slot", sw);
  int prev_slot = m.add_reg("prev_slot", sw);
  int advance_valid = m.add_reg("advance_valid", 1);

  // Slot table: owner of each slot; slot s is succeeded by s + 1.
  std::vector<Slot> slots = slot_order(cfg.deps);
  if (slots.empty()) slots.push_back(Slot{0, true, 0});

  // One-hot decode of the slot register (shared by events, fire logic, and
  // the mux network).
  std::vector<int> slot_onehot(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    int w = m.add_wire("slot_is" + std::to_string(s), 1);
    m.assign(w, ebin(RtlOp::Eq, eref(slot, sw),
                     econst(static_cast<std::uint64_t>(s), sw)));
    slot_onehot[s] = w;
  }
  auto slot_is = [&](int s) {
    return eref(slot_onehot[static_cast<std::size_t>(s)], 1);
  };

  // Per-slot "owner fired" condition.
  std::vector<int> fire(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    int w = m.add_wire("fire_s" + std::to_string(s), 1);
    int owner_req = slots[s].is_producer ? pp(slots[s].port).req
                                         : cp(slots[s].port).req;
    m.assign(w, ebin(RtlOp::And, slot_is(static_cast<int>(s)),
                     eref(owner_req, 1)));
    fire[s] = w;
  }

  // Events: slot ownership exported to the threads.
  for (int j = 0; j < np; ++j) {
    RtlExprPtr any;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].is_producer || slots[s].port != j) continue;
      RtlExprPtr term = slot_is(static_cast<int>(s));
      any = any == nullptr
                ? std::move(term)
                : ebin(RtlOp::Or, std::move(any), std::move(term));
    }
    if (any == nullptr) any = econst(0, 1);
    m.assign(ev_p[static_cast<std::size_t>(j)], std::move(any));
    m.assign(pp(j).grant, [&]() -> RtlExprPtr {
      RtlExprPtr g;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].is_producer || slots[s].port != j) continue;
        RtlExprPtr term = eref(fire[s], 1);
        g = g == nullptr ? std::move(term)
                         : ebin(RtlOp::Or, std::move(g), std::move(term));
      }
      return g != nullptr ? std::move(g) : econst(0, 1);
    }());
  }
  for (int i = 0; i < nc; ++i) {
    RtlExprPtr any;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].is_producer || slots[s].port != i) continue;
      RtlExprPtr term = slot_is(static_cast<int>(s));
      any = any == nullptr
                ? std::move(term)
                : ebin(RtlOp::Or, std::move(any), std::move(term));
    }
    if (any == nullptr) any = econst(0, 1);
    m.assign(cp(i).ev, std::move(any));
  }

  // Slot advance: when the current slot's owner fires, move to the next
  // slot (wrapping the last slot to 0) — this *is* the modulo schedule.
  RtlExprPtr any_fire;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    RtlExprPtr f = eref(fire[s], 1);
    any_fire = any_fire == nullptr
                   ? std::move(f)
                   : ebin(RtlOp::Or, std::move(any_fire), std::move(f));
  }
  int advance = m.add_wire("advance", 1);
  m.assign(advance, std::move(any_fire));

  std::vector<rtl::RtlExprPtr> succ_values;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    succ_values.push_back(econst((s + 1) % slots.size(), sw));
  }
  RtlExprPtr next_slot =
      emux(eref(advance, 1),
           rtl::build_onehot_mux(m, fire, std::move(succ_values), sw),
           eref(slot, sw));
  m.seq(slot, std::move(next_slot));
  m.seq(prev_slot, eref(slot, sw), eref(advance, 1));

  // Consumer read data arrives two cycles after its slot fires: the port-1
  // operand register stage, then the BRAM read register.
  std::vector<rtl::RtlExprPtr> consumed_terms;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].is_producer) consumed_terms.push_back(eref(fire[s], 1));
  }
  m.seq(advance_valid, rtl::eor_tree(std::move(consumed_terms), 1));
  int v2 = m.add_reg("read_valid_q2", 1);
  m.seq(v2, eref(advance_valid, 1));
  int ps2 = m.add_reg("prev_slot_q2", sw);
  m.seq(ps2, eref(prev_slot, sw));

  for (int i = 0; i < nc; ++i) {
    std::vector<rtl::RtlExprPtr> mine;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].is_producer || slots[s].port != i) continue;
      mine.push_back(ebin(RtlOp::Eq, eref(ps2, sw),
                          econst(static_cast<std::uint64_t>(s), sw)));
    }
    m.assign(cp(i).valid,
             ebin(RtlOp::And, eref(v2, 1),
                  rtl::eor_tree(std::move(mine), 1)));
  }

  // ---- Physical port 1: slot-selected operands land in a register stage
  // (mux 'c' of Fig. 3); the BRAM performs the operation next cycle. This
  // keeps the mux network off the BRAM setup path, and its cost is fixed —
  // scenario growth shows up only in the mux LUTs. ----
  std::vector<int> addr_sel;
  std::vector<rtl::RtlExprPtr> addr_vals;
  std::vector<int> wdata_sel;
  std::vector<rtl::RtlExprPtr> wdata_vals;
  std::vector<rtl::RtlExprPtr> we_terms;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    addr_sel.push_back(slot_onehot[s]);
    if (slots[s].is_producer) {
      addr_vals.push_back(eref(pp(slots[s].port).addr, aw));
      wdata_sel.push_back(slot_onehot[s]);
      wdata_vals.push_back(eref(pp(slots[s].port).wdata, dw));
      we_terms.push_back(eref(fire[s], 1));
    } else {
      addr_vals.push_back(eref(cp(slots[s].port).addr, aw));
    }
  }
  int port1_addr = m.add_reg("port1_addr", aw);
  m.seq(port1_addr,
        rtl::build_onehot_mux(m, addr_sel, std::move(addr_vals), aw));
  int port1_wdata = m.add_reg("port1_wdata", dw);
  m.seq(port1_wdata,
        rtl::build_onehot_mux(m, wdata_sel, std::move(wdata_vals), dw));
  int port1_we = m.add_reg("port1_we", 1);
  m.seq(port1_we, rtl::eor_tree(std::move(we_terms), 1));

  // ---- BRAM. ----
  add_dual_port_bram(m, ports.a, port1_addr, port1_we, port1_wdata,
                     ports.bus_rdata);

  return out;
}

EventDrivenConfig eventdriven_config_from(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan) {
  EventDrivenConfig cfg;
  cfg.data_width = bram.shape.width;
  cfg.addr_width = support::clog2_at_least1(
      static_cast<std::uint64_t>(bram.shape.depth) *
      static_cast<std::uint64_t>(bram.primitives));
  cfg.num_consumers = std::max(1, plan.consumer_pseudo_ports());
  cfg.num_producers = std::max(1, plan.producer_pseudo_ports());
  cfg.deps = build_dep_entries(bram, plan);
  return cfg;
}

}  // namespace hicsync::memorg
