#include "baseline/bare.h"

#include "memorg/ports.h"
#include "rtl/builder.h"
#include "support/bits.h"

namespace hicsync::baseline {

using rtl::ebin;
using rtl::econst;
using rtl::enot;
using rtl::eref;
using rtl::RtlExprPtr;
using rtl::RtlOp;

ClientModule generate_bare(rtl::Design& design, const BareConfig& cfg,
                           const std::string& name) {
  ClientModule out{design.add_module(name), {}, -1};
  rtl::Module& m = out.module;
  out.clients.resize(static_cast<std::size_t>(cfg.num_clients));
  const int aw = cfg.addr_width;
  const int dw = cfg.data_width;
  const int n = cfg.num_clients;
  const int ow = support::clog2_at_least1(static_cast<std::uint64_t>(n));

  (void)m.clk();
  (void)m.rst();

  const memorg::PortA a = memorg::add_port_a(m, aw, dw);

  auto client = [&](int i) -> ClientPort& {
    return out.clients[static_cast<std::size_t>(i)];
  };
  std::vector<int> req(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string s = std::to_string(i);
    ClientPort& c = client(i);
    c.req = req[static_cast<std::size_t>(i)] = m.add_input("req" + s, 1);
    c.we = m.add_input("we" + s, 1);
    c.addr = m.add_input("addr" + s, aw);
    c.wdata = m.add_input("wdata" + s, dw);
  }
  out.bus_rdata = m.add_output_reg("bus_rdata", dw);

  rtl::ArbiterNets arb = rtl::build_round_robin_arbiter(m, req, "arb");
  for (int i = 0; i < n; ++i) {
    int g = client(i).grant = m.add_output("grant" + std::to_string(i), 1);
    m.assign(g, eref(arb.grant[static_cast<std::size_t>(i)], 1));
  }

  std::vector<RtlExprPtr> addr_vals;
  std::vector<RtlExprPtr> data_vals;
  std::vector<RtlExprPtr> we_terms;
  std::vector<RtlExprPtr> rd_terms;
  std::vector<RtlExprPtr> ids;
  for (int i = 0; i < n; ++i) {
    const ClientPort& c = client(i);
    addr_vals.push_back(eref(c.addr, aw));
    data_vals.push_back(eref(c.wdata, dw));
    we_terms.push_back(
        ebin(RtlOp::And, eref(arb.grant[static_cast<std::size_t>(i)], 1),
             eref(c.we, 1)));
    rd_terms.push_back(
        ebin(RtlOp::And, eref(arb.grant[static_cast<std::size_t>(i)], 1),
             enot(eref(c.we, 1))));
    ids.push_back(econst(static_cast<std::uint64_t>(i), ow));
  }
  int port1_addr = m.add_reg("port1_addr", aw);
  m.seq(port1_addr,
        rtl::build_onehot_mux(m, arb.grant, std::move(addr_vals), aw));
  int port1_wdata = m.add_reg("port1_wdata", dw);
  m.seq(port1_wdata,
        rtl::build_onehot_mux(m, arb.grant, std::move(data_vals), dw));
  int port1_we = m.add_reg("port1_we", 1);
  m.seq(port1_we, rtl::eor_tree(std::move(we_terms), 1));

  int v1 = m.add_reg("valid_q1", 1);
  m.seq(v1, rtl::eor_tree(std::move(rd_terms), 1));
  int v2 = m.add_reg("valid_q2", 1);
  m.seq(v2, eref(v1, 1));
  int id1 = m.add_reg("grant_id_q1", ow);
  m.seq(id1, rtl::build_onehot_mux(m, arb.grant, std::move(ids), ow));
  int id2 = m.add_reg("grant_id_q2", ow);
  m.seq(id2, eref(id1, ow));
  for (int i = 0; i < n; ++i) {
    int v = client(i).valid = m.add_output("valid" + std::to_string(i), 1);
    m.assign(v, ebin(RtlOp::And, eref(v2, 1),
                     ebin(RtlOp::Eq, eref(id2, ow),
                          econst(static_cast<std::uint64_t>(i), ow))));
  }

  memorg::add_dual_port_bram(m, a, port1_addr, port1_we, port1_wdata,
                             out.bus_rdata);

  return out;
}

}  // namespace hicsync::baseline
