#include "memorg/ports.h"

#include <utility>

namespace hicsync::memorg {

using rtl::ebin;
using rtl::eref;
using rtl::RtlOp;

PortA add_port_a(rtl::Module& m, int addr_width, int data_width) {
  PortA a;
  a.en = m.add_input("a_en", 1);
  a.we = m.add_input("a_we", 1);
  a.addr = m.add_input("a_addr", addr_width);
  a.wdata = m.add_input("a_wdata", data_width);
  a.rdata = m.add_output_reg("a_rdata", data_width);
  return a;
}

void add_dual_port_bram(rtl::Module& m, const PortA& a, int port1_addr,
                        int port1_we, int port1_wdata, int bus_rdata) {
  const int aw = m.net(a.addr).width;
  const int dw = m.net(a.wdata).width;
  rtl::Memory& mem = m.add_memory("mem", dw, 1 << aw);
  {
    rtl::MemoryPort p0;  // port A
    p0.addr = eref(a.addr, aw);
    p0.write_enable = ebin(RtlOp::And, eref(a.en, 1), eref(a.we, 1));
    p0.write_data = eref(a.wdata, dw);
    p0.read_data = a.rdata;
    mem.ports.push_back(std::move(p0));
  }
  {
    rtl::MemoryPort p1;  // the shared port 1
    p1.addr = eref(port1_addr, aw);
    p1.write_enable = eref(port1_we, 1);
    p1.write_data = eref(port1_wdata, dw);
    p1.read_data = bus_rdata;
    mem.ports.push_back(std::move(p1));
  }
}

}  // namespace hicsync::memorg
