#include "rtl/verilog.h"

#include "support/strings.h"

namespace hicsync::rtl {
namespace {

std::string width_decl(int width) {
  if (width <= 1) return "";
  return "[" + std::to_string(width - 1) + ":0] ";
}

const char* binop_token(RtlOp op) {
  switch (op) {
    case RtlOp::And: return "&";
    case RtlOp::Or: return "|";
    case RtlOp::Xor: return "^";
    case RtlOp::Add: return "+";
    case RtlOp::Sub: return "-";
    case RtlOp::Eq: return "==";
    case RtlOp::Ne: return "!=";
    case RtlOp::Lt: return "<";
    case RtlOp::Le: return "<=";
    case RtlOp::Shl: return "<<";
    case RtlOp::Shr: return ">>";
    default: return "?";
  }
}

}  // namespace

std::string emit_expr(const Module& m, const RtlExpr& e) {
  switch (e.op) {
    case RtlOp::Const:
      return std::to_string(e.width) + "'d" + std::to_string(e.value);
    case RtlOp::Ref:
      return m.net(e.net).name;
    case RtlOp::Slice: {
      std::string base = emit_expr(m, *e.args[0]);
      if (e.args[0]->op != RtlOp::Ref) {
        // Verilog cannot slice an arbitrary expression; parenthesized
        // slices are invalid — callers should slice nets. Emit a
        // shift+mask equivalent instead.
        std::string shifted =
            e.lo == 0 ? base
                      : "(" + base + " >> " + std::to_string(e.lo) + ")";
        return shifted + "[" + std::to_string(e.hi - e.lo) + ":0]";
      }
      if (e.hi == e.lo) return base + "[" + std::to_string(e.lo) + "]";
      return base + "[" + std::to_string(e.hi) + ":" +
             std::to_string(e.lo) + "]";
    }
    case RtlOp::Concat: {
      std::string out = "{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += emit_expr(m, *e.args[i]);
      }
      return out + "}";
    }
    case RtlOp::Not:
      return "~(" + emit_expr(m, *e.args[0]) + ")";
    case RtlOp::Mux:
      return "(" + emit_expr(m, *e.args[0]) + " ? " +
             emit_expr(m, *e.args[1]) + " : " + emit_expr(m, *e.args[2]) +
             ")";
    case RtlOp::ReduceOr:
      return "(|" + emit_expr(m, *e.args[0]) + ")";
    case RtlOp::ReduceAnd:
      return "(&" + emit_expr(m, *e.args[0]) + ")";
    default:
      return "(" + emit_expr(m, *e.args[0]) + " " + binop_token(e.op) + " " +
             emit_expr(m, *e.args[1]) + ")";
  }
}

std::string emit_module(const Module& m) {
  std::string out = "module " + m.name() + " (\n";
  for (std::size_t i = 0; i < m.ports().size(); ++i) {
    const Port& p = m.ports()[i];
    const Net& n = m.net(p.net);
    out += "  " + std::string(p.dir == PortDir::Input ? "input  " : "output ");
    out += n.kind == NetKind::Reg ? "reg  " : "wire ";
    out += width_decl(n.width);
    out += p.name;
    out += (i + 1 == m.ports().size()) ? "\n" : ",\n";
  }
  out += ");\n\n";

  // Internal nets.
  for (const Net& n : m.nets()) {
    bool is_port = false;
    for (const Port& p : m.ports()) {
      if (p.net == n.id) {
        is_port = true;
        break;
      }
    }
    if (is_port) continue;
    out += "  ";
    out += n.kind == NetKind::Reg ? "reg  " : "wire ";
    out += width_decl(n.width);
    out += n.name + ";\n";
  }
  if (!m.nets().empty()) out += "\n";

  // Memories.
  for (const Memory& mem : m.memories()) {
    out += "  reg " + width_decl(mem.width) + mem.name + " [0:" +
           std::to_string(mem.depth - 1) + "];\n";
  }
  if (!m.memories().empty()) out += "\n";

  // Continuous assigns.
  for (const ContAssign& a : m.assigns()) {
    out += "  assign " + m.net(a.target).name + " = " +
           emit_expr(m, *a.value) + ";\n";
  }
  if (!m.assigns().empty()) out += "\n";

  // One always block for all sequential logic.
  const bool has_seq = !m.seqs().empty();
  if (has_seq) {
    // Module::clk()/rst() lazily create the nets; emission must not mutate,
    // so locate them by name.
    std::string clk = "clk";
    std::string rst = "rst";
    out += "  always @(posedge " + clk + ") begin\n";
    bool any_reset = false;
    for (const SeqAssign& s : m.seqs()) any_reset |= s.has_reset;
    if (any_reset) {
      out += "    if (" + rst + ") begin\n";
      for (const SeqAssign& s : m.seqs()) {
        if (!s.has_reset) continue;
        out += "      " + m.net(s.target).name + " <= " +
               std::to_string(m.net(s.target).width) + "'d" +
               std::to_string(s.reset_value) + ";\n";
      }
      out += "    end else begin\n";
    } else {
      out += "    begin\n";
    }
    for (const SeqAssign& s : m.seqs()) {
      std::string line;
      if (s.enable != nullptr) {
        line = "if (" + emit_expr(m, *s.enable) + ") " +
               m.net(s.target).name + " <= " + emit_expr(m, *s.value) + ";";
      } else {
        line = m.net(s.target).name + " <= " + emit_expr(m, *s.value) + ";";
      }
      out += "      " + line + "\n";
    }
    out += "    end\n";
    out += "  end\n\n";
  }

  // Memory ports: one always block per port (BRAM inference idiom).
  for (const Memory& mem : m.memories()) {
    for (std::size_t pi = 0; pi < mem.ports.size(); ++pi) {
      const MemoryPort& p = mem.ports[pi];
      out += "  // " + mem.name + " port " + std::to_string(pi) + "\n";
      out += "  always @(posedge clk) begin\n";
      if (p.write_enable != nullptr) {
        out += "    if (" + emit_expr(m, *p.write_enable) + ") " + mem.name +
               "[" + emit_expr(m, *p.addr) + "] <= " +
               emit_expr(m, *p.write_data) + ";\n";
      }
      if (p.read_data >= 0) {
        out += "    " + m.net(p.read_data).name + " <= " + mem.name + "[" +
               emit_expr(m, *p.addr) + "];\n";
      }
      out += "  end\n\n";
    }
  }

  out += "endmodule\n";
  return out;
}

std::string emit_design(const Design& d) {
  std::string out =
      "// Generated by hicsync (memory-centric thread synchronization)\n\n";
  const auto& modules = d.modules();
  if (modules.empty()) return out;
  for (std::size_t i = 1; i < modules.size(); ++i) {
    out += emit_module(*modules[i]) + "\n";
  }
  out += emit_module(*modules.front());
  return out;
}

}  // namespace hicsync::rtl
