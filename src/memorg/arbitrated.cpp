#include "memorg/arbitrated.h"

#include <algorithm>

#include "rtl/builder.h"
#include "support/bits.h"

namespace hicsync::memorg {

using rtl::ebin;
using rtl::econst;
using rtl::emux;
using rtl::enot;
using rtl::eref;
using rtl::ereduce_or;
using rtl::RtlExprPtr;
using rtl::RtlOp;

ControllerModule generate_arbitrated(rtl::Design& design,
                                     const ArbitratedConfig& cfg,
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
  const int ne = static_cast<int>(cfg.deps.size());
  // Baseline sizing: countdown and id registers dimensioned for
  // kArbitratedBaselineConsumers so the FF inventory does not vary with
  // the scenario.
  const int max_nc = std::max(kArbitratedBaselineConsumers, nc);
  const int cw =
      std::max(counter_width(cfg.deps),
               support::clog2_at_least1(
                   static_cast<std::uint64_t>(max_nc) + 1));
  const int idw =
      support::clog2_at_least1(static_cast<std::uint64_t>(max_nc));

  (void)m.clk();
  (void)m.rst();

  // ---- Port A: direct access to physical port 0. ----
  ports.a = add_port_a(m, aw, dw);

  // ---- Port B. ----
  int b_en = m.add_input("b_en", 1);
  int b_we = m.add_input("b_we", 1);
  int b_addr = m.add_input("b_addr", aw);
  int b_wdata = m.add_input("b_wdata", dw);
  int b_grant = m.add_output("b_grant", 1);
  int b_valid = m.add_output_reg("b_valid", 1);

  // ---- Port C pseudo-ports. ----
  for (int i = 0; i < nc; ++i) {
    const std::string n = std::to_string(i);
    cp(i).req = m.add_input("c_req" + n, 1);
    cp(i).addr = m.add_input("c_addr" + n, aw);
    cp(i).grant = m.add_output("c_grant" + n, 1);
    cp(i).valid = m.add_output("c_valid" + n, 1);
  }
  ports.bus_rdata = m.add_output_reg("bus_rdata", dw);

  // ---- Port D pseudo-ports. ----
  for (int j = 0; j < np; ++j) {
    const std::string n = std::to_string(j);
    pp(j).req = m.add_input("d_req" + n, 1);
    pp(j).addr = m.add_input("d_addr" + n, aw);
    pp(j).wdata = m.add_input("d_wdata" + n, dw);
    pp(j).grant = m.add_output("d_grant" + n, 1);
  }

  // ---- Dependency list: per-entry countdown registers. ----
  std::vector<int> count(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    count[static_cast<std::size_t>(e)] =
        m.add_reg("dep" + std::to_string(e) + "_count", cw);
  }
  // Serial-scan pointer (only used when !use_cam).
  int scan = -1;
  const int sw = support::clog2_at_least1(
      static_cast<std::uint64_t>(std::max(ne, 1)));
  if (!cfg.use_cam && ne > 1) {
    scan = m.add_reg("scan_ptr", sw);
    RtlExprPtr wrap =
        ebin(RtlOp::Eq, eref(scan, sw),
             econst(static_cast<std::uint64_t>(ne - 1), sw));
    RtlExprPtr next = emux(std::move(wrap), econst(0, sw),
                           ebin(RtlOp::Add, eref(scan, sw), econst(1, sw)));
    m.seq(scan, std::move(next));
  }

  // Pure address match against an entry's configured base address.
  auto pure_match = [&](int addr_net, int e) -> RtlExprPtr {
    return ebin(
        RtlOp::Eq, eref(addr_net, aw),
        econst(cfg.deps[static_cast<std::size_t>(e)].base_address, aw));
  };
  // Scan mode shares one base-address comparator per pseudo-port: the
  // scanned entry's base address and countdown state are muxed onto shared
  // nets, and each port compares against those. CAM mode compares every
  // entry in parallel (the paper's choice). Countdown updates always use
  // the pure per-entry match: they react to a *grant*, whose cycle need
  // not coincide with the entry's scan slot.
  const bool serial_scan = !cfg.use_cam && ne > 1;
  int scanned_base = -1;       // base address of the scanned entry
  int scanned_nonzero = -1;    // its countdown > 0
  if (serial_scan) {
    std::vector<RtlExprPtr> bases;
    std::vector<RtlExprPtr> nonzeros;
    for (int e = 0; e < ne; ++e) {
      bases.push_back(
          econst(cfg.deps[static_cast<std::size_t>(e)].base_address, aw));
      nonzeros.push_back(
          ereduce_or(eref(count[static_cast<std::size_t>(e)], cw)));
    }
    scanned_base = m.add_wire("scanned_base", aw);
    m.assign(scanned_base, rtl::build_mux_tree(m, scan, std::move(bases)));
    scanned_nonzero = m.add_wire("scanned_nonzero", 1);
    m.assign(scanned_nonzero,
             rtl::build_mux_tree(m, scan, std::move(nonzeros)));
  }

  // Consumer-side eligibility condition for one pseudo-port address: some
  // matched entry with countdown > 0.
  auto consumer_cond = [&](int addr_net) -> RtlExprPtr {
    if (serial_scan) {
      return ebin(RtlOp::And,
                  ebin(RtlOp::Eq, eref(addr_net, aw),
                       eref(scanned_base, aw)),
                  eref(scanned_nonzero, 1));
    }
    std::vector<RtlExprPtr> terms;
    for (int e = 0; e < ne; ++e) {
      terms.push_back(
          ebin(RtlOp::And, pure_match(addr_net, e),
               ereduce_or(eref(count[static_cast<std::size_t>(e)], cw))));
    }
    return rtl::eor_tree(std::move(terms), 1);
  };
  // Producer-side: matched entry with countdown == 0.
  auto producer_cond = [&](int addr_net) -> RtlExprPtr {
    if (serial_scan) {
      return ebin(RtlOp::And,
                  ebin(RtlOp::Eq, eref(addr_net, aw),
                       eref(scanned_base, aw)),
                  enot(eref(scanned_nonzero, 1)));
    }
    std::vector<RtlExprPtr> terms;
    for (int e = 0; e < ne; ++e) {
      terms.push_back(ebin(
          RtlOp::And, pure_match(addr_net, e),
          enot(ereduce_or(eref(count[static_cast<std::size_t>(e)], cw)))));
    }
    return rtl::eor_tree(std::move(terms), 1);
  };

  // ---- Eligibility: registered dependency-list lookup stage. ----
  // The CAM comparison and countdown check land in a register, isolating
  // the lookup cone from the arbiter cone (one lookup cycle, as a physical
  // CAM would have). A grant kills its own eligibility bit so a request
  // cannot be granted twice while the client reacts.
  // Grants are declared ahead of the arbiter so the kill terms can
  // reference them; they are assigned further down.
  std::vector<int> c_granted(static_cast<std::size_t>(nc));
  for (int i = 0; i < nc; ++i) {
    c_granted[static_cast<std::size_t>(i)] =
        m.add_wire("c_granted" + std::to_string(i), 1);
  }

  // Consumer i: request and some matched entry still has countdown > 0.
  // Eligibility registers are allocated for max_nc so the flip-flop
  // inventory does not depend on the scenario.
  std::vector<int> c_elig(static_cast<std::size_t>(max_nc));
  for (int i = 0; i < max_nc; ++i) {
    int elig = m.add_reg("c_elig_q" + std::to_string(i), 1);
    c_elig[static_cast<std::size_t>(i)] = elig;
    if (i >= nc) {
      m.seq(elig, econst(0, 1));
      continue;
    }
    RtlExprPtr cond = consumer_cond(cp(i).addr);
    RtlExprPtr next = ebin(
        RtlOp::And, eref(cp(i).req, 1),
        ebin(RtlOp::And, std::move(cond),
             enot(eref(c_granted[static_cast<std::size_t>(i)], 1))));
    m.seq(elig, std::move(next));
  }
  c_elig.resize(static_cast<std::size_t>(nc));

  // Producer j: request and matched entry countdown == 0 (previous cycle
  // complete: the address is no longer guarded and may be re-produced).
  std::vector<int> d_elig(static_cast<std::size_t>(np));
  for (int j = 0; j < np; ++j) {
    int elig = m.add_reg("d_elig_q" + std::to_string(j), 1);
    d_elig[static_cast<std::size_t>(j)] = elig;
    RtlExprPtr cond = producer_cond(pp(j).addr);
    RtlExprPtr next = ebin(
        RtlOp::And, eref(pp(j).req, 1),
        ebin(RtlOp::And, std::move(cond),
             enot(eref(pp(j).grant, 1))));
    m.seq(elig, std::move(next));
  }

  // ---- Arbitration: round robin within C and within D; D beats C. ----
  const int ptr_w =
      support::clog2_at_least1(static_cast<std::uint64_t>(max_nc));
  auto build_arbiter = [&](const std::vector<int>& requests,
                           const std::string& prefix) -> rtl::ArbiterNets {
    if (cfg.round_robin) {
      return rtl::build_round_robin_arbiter(m, requests, prefix, ptr_w);
    }
    // Fixed priority (ablation): index 0 wins ties; keep the pointer
    // register so the FF inventory is identical to the round-robin build.
    rtl::ArbiterNets nets;
    nets.grant = rtl::build_fixed_priority(m, requests, prefix);
    std::vector<RtlExprPtr> reqs;
    for (int r : requests) reqs.push_back(eref(r, 1));
    nets.any_grant = m.add_wire(prefix + "_any_grant", 1);
    m.assign(nets.any_grant, rtl::eor_tree(std::move(reqs), 1));
    nets.pointer = m.add_reg(prefix + "_ptr", ptr_w);
    m.seq(nets.pointer, eref(nets.pointer, ptr_w));
    return nets;
  };
  rtl::ArbiterNets c_arb = build_arbiter(c_elig, "c_rr");
  rtl::ArbiterNets d_arb = build_arbiter(d_elig, "d_rr");

  int any_d = m.add_wire("any_d_grant", 1);
  m.assign(any_d, eref(d_arb.any_grant, 1));
  int any_c = m.add_wire("any_c_grant", 1);
  m.assign(any_c, ebin(RtlOp::And, eref(c_arb.any_grant, 1),
                       enot(eref(any_d, 1))));

  for (int j = 0; j < np; ++j) {
    m.assign(pp(j).grant,
             eref(d_arb.grant[static_cast<std::size_t>(j)], 1));
  }
  // A consumer grant is suppressed the cycle a producer write wins port 1.
  // (The c_granted wires were declared with the eligibility registers so
  // the grant-kill terms could reference them.)
  for (int i = 0; i < nc; ++i) {
    m.assign(c_granted[static_cast<std::size_t>(i)],
             ebin(RtlOp::And,
                  eref(c_arb.grant[static_cast<std::size_t>(i)], 1),
                  enot(eref(any_d, 1))));
    m.assign(cp(i).grant,
             eref(c_granted[static_cast<std::size_t>(i)], 1));
  }

  // Port B goes last: only when C and D are silent (raw requests, per §3.1).
  RtlExprPtr any_c_req;
  for (int i = 0; i < nc; ++i) {
    RtlExprPtr r = eref(cp(i).req, 1);
    any_c_req = any_c_req == nullptr
                    ? std::move(r)
                    : ebin(RtlOp::Or, std::move(any_c_req), std::move(r));
  }
  RtlExprPtr any_d_req;
  for (int j = 0; j < np; ++j) {
    RtlExprPtr r = eref(pp(j).req, 1);
    any_d_req = any_d_req == nullptr
                    ? std::move(r)
                    : ebin(RtlOp::Or, std::move(any_d_req), std::move(r));
  }
  RtlExprPtr quiet = ebin(RtlOp::And, enot(any_c_req->clone()),
                          enot(any_d_req->clone()));
  // Also require the registered-eligibility arbiters to be silent. Under
  // the request-hold protocol this is implied (eligibility is a delayed
  // copy of a held request), but stating it structurally makes the
  // B-vs-C/D exclusivity a property of the netlist rather than of client
  // behavior — one-hot provable, and safe against clients that drop a
  // request early while a stale eligibility bit is still arbitrating.
  quiet = ebin(RtlOp::And, std::move(quiet),
               ebin(RtlOp::And, enot(eref(c_arb.any_grant, 1)),
                    enot(eref(any_d, 1))));
  m.assign(b_grant, ebin(RtlOp::And, eref(b_en, 1), std::move(quiet)));

  // ---- Physical port 1 operand registers (the Fig. 2 wrapper). ----
  // The grant-side mux cone lands in a register stage; the BRAM performs
  // the operation the following cycle. This isolates the arbitration cone
  // from the BRAM setup path (needed to approach the 125 MHz target) and
  // is where the bulk of the baseline's fixed flip-flop budget lives.
  std::vector<int> all_grants;   // D grants, then C grants, then B
  std::vector<RtlExprPtr> addr_values;
  std::vector<RtlExprPtr> wdata_values;
  for (int j = 0; j < np; ++j) {
    all_grants.push_back(pp(j).grant);
    addr_values.push_back(eref(pp(j).addr, aw));
    wdata_values.push_back(eref(pp(j).wdata, dw));
  }
  for (int i = 0; i < nc; ++i) {
    all_grants.push_back(c_granted[static_cast<std::size_t>(i)]);
    addr_values.push_back(eref(cp(i).addr, aw));
    wdata_values.push_back(econst(0, dw));
  }
  all_grants.push_back(b_grant);
  addr_values.push_back(eref(b_addr, aw));
  wdata_values.push_back(eref(b_wdata, dw));
  int port1_addr = m.add_reg("port1_addr", aw);
  m.seq(port1_addr,
        rtl::build_onehot_mux(m, all_grants, std::move(addr_values), aw));
  int port1_wdata = m.add_reg("port1_wdata", dw);
  m.seq(port1_wdata,
        rtl::build_onehot_mux(m, all_grants, std::move(wdata_values), dw));
  int port1_we = m.add_reg("port1_we", 1);
  m.seq(port1_we,
        ebin(RtlOp::Or, eref(any_d, 1),
             ebin(RtlOp::And, eref(b_grant, 1), eref(b_we, 1))));

  // ---- The BRAM itself. ----
  add_dual_port_bram(m, ports.a, port1_addr, port1_we, port1_wdata,
                     ports.bus_rdata);

  // ---- Dependency-list countdown updates. ----
  for (int e = 0; e < ne; ++e) {
    // Reload when a granted producer write hits this entry.
    RtlExprPtr load;
    for (int j = 0; j < np; ++j) {
      RtlExprPtr term =
          ebin(RtlOp::And, eref(pp(j).grant, 1),
               pure_match(pp(j).addr, e));
      load = load == nullptr
                 ? std::move(term)
                 : ebin(RtlOp::Or, std::move(load), std::move(term));
    }
    if (load == nullptr) load = econst(0, 1);
    // Decrement when a granted consumer read hits this entry.
    RtlExprPtr dec;
    for (int i = 0; i < nc; ++i) {
      RtlExprPtr term =
          ebin(RtlOp::And, eref(c_granted[static_cast<std::size_t>(i)], 1),
               pure_match(cp(i).addr, e));
      dec = dec == nullptr ? std::move(term)
                           : ebin(RtlOp::Or, std::move(dec), std::move(term));
    }
    if (dec == nullptr) dec = econst(0, 1);

    int cnt = count[static_cast<std::size_t>(e)];
    // Saturating decrement: the countdown never wraps below zero, so a
    // stale registered eligibility (a hazard only for clients that issue
    // more reads than the dependency number) cannot corrupt the guard.
    RtlExprPtr dec_live =
        ebin(RtlOp::And, std::move(dec), ereduce_or(eref(cnt, cw)));
    RtlExprPtr next = emux(
        std::move(load),
        econst(static_cast<std::uint64_t>(
                   cfg.deps[static_cast<std::size_t>(e)].dependency_number),
               cw),
        emux(std::move(dec_live),
             ebin(RtlOp::Sub, eref(cnt, cw), econst(1, cw)),
             eref(cnt, cw)));
    m.seq(cnt, std::move(next));
  }

  // ---- Read-valid pipeline (two stages, matching the registered port). ----
  // Stage 1 tracks the grant; stage 2 aligns with the BRAM read data
  // landing in bus_rdata. The grant-id register is sized for max_nc so
  // this budget is scenario-independent.
  int valid1 = m.add_reg("c_valid_q1", 1);
  m.seq(valid1, eref(any_c, 1));
  int valid2 = m.add_reg("c_valid_q2", 1);
  m.seq(valid2, eref(valid1, 1));
  std::vector<RtlExprPtr> id_values;
  for (int i = 0; i < nc; ++i) {
    id_values.push_back(econst(static_cast<std::uint64_t>(i), idw));
  }
  int id1 = m.add_reg("c_grant_id_q1", idw);
  m.seq(id1, rtl::build_onehot_mux(m, c_granted, std::move(id_values), idw));
  int id2 = m.add_reg("c_grant_id_q2", idw);
  m.seq(id2, eref(id1, idw));
  for (int i = 0; i < nc; ++i) {
    m.assign(cp(i).valid,
             ebin(RtlOp::And, eref(valid2, 1),
                  ebin(RtlOp::Eq, eref(id2, idw),
                       econst(static_cast<std::uint64_t>(i), idw))));
  }
  int b_valid1 = m.add_reg("b_valid_q1", 1);
  m.seq(b_valid1, ebin(RtlOp::And, eref(b_grant, 1), enot(eref(b_we, 1))));
  m.seq(b_valid, eref(b_valid1, 1));

  return out;
}

ArbitratedConfig arbitrated_config_from(const memalloc::BramInstance& bram,
                                        const memalloc::BramPortPlan& plan) {
  ArbitratedConfig cfg;
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
