#include "baseline/lockmem.h"

#include "memorg/ports.h"
#include "rtl/builder.h"
#include "support/bits.h"

namespace hicsync::baseline {

using rtl::ebin;
using rtl::econst;
using rtl::emux;
using rtl::enot;
using rtl::eref;
using rtl::ereduce_or;
using rtl::RtlExprPtr;
using rtl::RtlOp;

ClientModule generate_lockmem(rtl::Design& design, const LockMemConfig& cfg,
                              const std::string& name) {
  ClientModule out{design.add_module(name), {}, -1};
  rtl::Module& m = out.module;
  out.clients.resize(static_cast<std::size_t>(cfg.num_clients));
  const int aw = cfg.addr_width;
  const int dw = cfg.data_width;
  const int n = cfg.num_clients;
  const int nl = static_cast<int>(cfg.lock_addrs.size());
  const int ow = support::clog2_at_least1(static_cast<std::uint64_t>(n));

  (void)m.clk();
  (void)m.rst();

  // Direct port 0.
  const memorg::PortA a = memorg::add_port_a(m, aw, dw);

  // Clients.
  auto client = [&](int i) -> ClientPort& {
    return out.clients[static_cast<std::size_t>(i)];
  };
  for (int i = 0; i < n; ++i) {
    std::string s = std::to_string(i);
    ClientPort& c = client(i);
    c.req = m.add_input("req" + s, 1);
    c.we = m.add_input("we" + s, 1);
    c.addr = m.add_input("addr" + s, aw);
    c.wdata = m.add_input("wdata" + s, dw);
    c.grant = m.add_output("grant" + s, 1);
    c.valid = m.add_output("valid" + s, 1);
    c.lock_req = m.add_input("lock_req" + s, 1);
    c.lock_addr = m.add_input("lock_addr" + s, aw);
    c.unlock_req = m.add_input("unlock_req" + s, 1);
    c.lock_grant = m.add_output("lock_grant" + s, 1);
  }
  out.bus_rdata = m.add_output_reg("bus_rdata", dw);

  // ---- Lock registers: held bit + owner per lockable entry. ----
  std::vector<int> held(static_cast<std::size_t>(nl));
  std::vector<int> owner(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    held[static_cast<std::size_t>(l)] =
        m.add_reg("lock" + std::to_string(l) + "_held", 1);
    owner[static_cast<std::size_t>(l)] =
        m.add_reg("lock" + std::to_string(l) + "_owner", ow);
  }

  auto lock_match = [&](int addr_net, int l) {
    return ebin(RtlOp::Eq, eref(addr_net, aw),
                econst(cfg.lock_addrs[static_cast<std::size_t>(l)], aw));
  };

  // Acquire: per lock, round-robin among clients whose lock_addr matches a
  // free lock. One acquisition per lock per cycle.
  std::vector<std::vector<int>> acquire(
      static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    std::vector<int> want(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      int w = m.add_wire(
          "want_l" + std::to_string(l) + "_c" + std::to_string(i), 1);
      m.assign(w,
               ebin(RtlOp::And,
                    eref(client(i).lock_req, 1),
                    ebin(RtlOp::And,
                         lock_match(client(i).lock_addr,
                                    l),
                         enot(eref(held[static_cast<std::size_t>(l)], 1)))));
      want[static_cast<std::size_t>(i)] = w;
    }
    rtl::ArbiterNets arb = rtl::build_round_robin_arbiter(
        m, want, "lkarb" + std::to_string(l));
    acquire[static_cast<std::size_t>(l)] = arb.grant;

    // Lock state update: acquire sets held+owner; unlock by owner clears.
    std::vector<RtlExprPtr> rel_terms;
    for (int i = 0; i < n; ++i) {
      rel_terms.push_back(ebin(
          RtlOp::And, eref(client(i).unlock_req, 1),
          ebin(RtlOp::And, eref(held[static_cast<std::size_t>(l)], 1),
               ebin(RtlOp::Eq, eref(owner[static_cast<std::size_t>(l)], ow),
                    econst(static_cast<std::uint64_t>(i), ow)))));
    }
    RtlExprPtr release = rtl::eor_tree(std::move(rel_terms), 1);
    RtlExprPtr acq = rtl::eor_tree(
        [&] {
          std::vector<RtlExprPtr> t;
          for (int i = 0; i < n; ++i) {
            t.push_back(eref(arb.grant[static_cast<std::size_t>(i)], 1));
          }
          return t;
        }(),
        1);
    int acq_w = m.add_wire("acq_l" + std::to_string(l), 1);
    m.assign(acq_w, std::move(acq));
    RtlExprPtr next_held =
        emux(eref(acq_w, 1), econst(1, 1),
             emux(std::move(release), econst(0, 1),
                  eref(held[static_cast<std::size_t>(l)], 1)));
    m.seq(held[static_cast<std::size_t>(l)], std::move(next_held));
    std::vector<RtlExprPtr> owner_vals;
    for (int i = 0; i < n; ++i) {
      owner_vals.push_back(econst(static_cast<std::uint64_t>(i), ow));
    }
    RtlExprPtr next_owner =
        emux(eref(acq_w, 1),
             rtl::build_onehot_mux(m, arb.grant, std::move(owner_vals), ow),
             eref(owner[static_cast<std::size_t>(l)], ow));
    m.seq(owner[static_cast<std::size_t>(l)], std::move(next_owner));
  }

  // lock_grant<i>: level signal — client currently holds some lock.
  for (int i = 0; i < n; ++i) {
    std::vector<RtlExprPtr> holds;
    for (int l = 0; l < nl; ++l) {
      RtlExprPtr now = ebin(
          RtlOp::And, eref(held[static_cast<std::size_t>(l)], 1),
          ebin(RtlOp::Eq, eref(owner[static_cast<std::size_t>(l)], ow),
               econst(static_cast<std::uint64_t>(i), ow)));
      holds.push_back(std::move(now));
    }
    m.assign(client(i).lock_grant,
             rtl::eor_tree(std::move(holds), 1));
  }

  // ---- Data access: allowed when the address's lock (if any) is held by
  // the requester (or the address is unlocked); round-robin among the
  // allowed requesters. ----
  std::vector<int> allowed(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<RtlExprPtr> conflicts;
    for (int l = 0; l < nl; ++l) {
      // Conflict: address matches a lock held by someone else.
      conflicts.push_back(ebin(
          RtlOp::And, lock_match(client(i).addr, l),
          ebin(RtlOp::And, eref(held[static_cast<std::size_t>(l)], 1),
               ebin(RtlOp::Ne, eref(owner[static_cast<std::size_t>(l)], ow),
                    econst(static_cast<std::uint64_t>(i), ow)))));
    }
    int w = m.add_wire("allowed" + std::to_string(i), 1);
    m.assign(w, ebin(RtlOp::And, eref(client(i).req, 1),
                     enot(rtl::eor_tree(std::move(conflicts), 1))));
    allowed[static_cast<std::size_t>(i)] = w;
  }
  rtl::ArbiterNets arb = rtl::build_round_robin_arbiter(m, allowed, "arb");
  for (int i = 0; i < n; ++i) {
    m.assign(client(i).grant,
             eref(arb.grant[static_cast<std::size_t>(i)], 1));
  }

  // Port-1 operand registers (same style as the paper's organizations).
  std::vector<RtlExprPtr> addr_vals;
  std::vector<RtlExprPtr> data_vals;
  std::vector<RtlExprPtr> we_terms;
  for (int i = 0; i < n; ++i) {
    addr_vals.push_back(eref(client(i).addr, aw));
    data_vals.push_back(eref(client(i).wdata, dw));
    we_terms.push_back(
        ebin(RtlOp::And, eref(arb.grant[static_cast<std::size_t>(i)], 1),
             eref(client(i).we, 1)));
  }
  int port1_addr = m.add_reg("port1_addr", aw);
  m.seq(port1_addr,
        rtl::build_onehot_mux(m, arb.grant, std::move(addr_vals), aw));
  int port1_wdata = m.add_reg("port1_wdata", dw);
  m.seq(port1_wdata,
        rtl::build_onehot_mux(m, arb.grant, std::move(data_vals), dw));
  int port1_we = m.add_reg("port1_we", 1);
  m.seq(port1_we, rtl::eor_tree(std::move(we_terms), 1));

  // Valid pipeline (two stages, as in the organizations).
  int v1 = m.add_reg("valid_q1", 1);
  std::vector<RtlExprPtr> read_grants;
  for (int i = 0; i < n; ++i) {
    read_grants.push_back(
        ebin(RtlOp::And, eref(arb.grant[static_cast<std::size_t>(i)], 1),
             enot(eref(client(i).we, 1))));
  }
  m.seq(v1, rtl::eor_tree(std::move(read_grants), 1));
  int v2 = m.add_reg("valid_q2", 1);
  m.seq(v2, eref(v1, 1));
  int id1 = m.add_reg("grant_id_q1", ow);
  std::vector<RtlExprPtr> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(econst(static_cast<std::uint64_t>(i), ow));
  }
  m.seq(id1, rtl::build_onehot_mux(m, arb.grant, std::move(ids), ow));
  int id2 = m.add_reg("grant_id_q2", ow);
  m.seq(id2, eref(id1, ow));
  for (int i = 0; i < n; ++i) {
    m.assign(client(i).valid,
             ebin(RtlOp::And, eref(v2, 1),
                  ebin(RtlOp::Eq, eref(id2, ow),
                       econst(static_cast<std::uint64_t>(i), ow))));
  }

  // ---- BRAM. ----
  memorg::add_dual_port_bram(m, a, port1_addr, port1_we, port1_wdata,
                             out.bus_rdata);

  return out;
}

}  // namespace hicsync::baseline
