#include "analysis/access.h"

namespace hicsync::analysis {

namespace {

void collect_expr(const hic::Stmt* stmt, const hic::Expr& e, bool is_def_root,
                  std::vector<Access>& out) {
  switch (e.kind) {
    case hic::ExprKind::VarRef:
      if (e.symbol == nullptr) return;  // unresolved (error program)
      out.push_back(Access{stmt, e.symbol, is_def_root});
      return;
    case hic::ExprKind::Index:
      // The base is a def if this index expression is the assignment target;
      // the subscript is always a use.
      collect_expr(stmt, *e.operands[0], is_def_root, out);
      collect_expr(stmt, *e.operands[1], false, out);
      return;
    case hic::ExprKind::Member:
      collect_expr(stmt, *e.operands[0], is_def_root, out);
      return;
    case hic::ExprKind::IntLit:
    case hic::ExprKind::CharLit:
      return;
    case hic::ExprKind::Unary:
    case hic::ExprKind::Binary:
    case hic::ExprKind::Call:
      for (const auto& op : e.operands) collect_expr(stmt, *op, false, out);
      return;
  }
}

}  // namespace

std::vector<Access> collect_accesses(const Cfg& cfg) {
  std::vector<Access> out;
  for (const CfgNode& n : cfg.nodes()) {
    if (n.kind == CfgNodeKind::Statement && n.stmt != nullptr &&
        n.stmt->kind == hic::StmtKind::Assign) {
      // RHS uses first (matches evaluation order), then the LHS def.
      collect_expr(n.stmt, *n.stmt->value, false, out);
      collect_expr(n.stmt, *n.stmt->target, true, out);
    } else if (n.kind == CfgNodeKind::Branch && n.cond != nullptr) {
      collect_expr(n.stmt, *n.cond, false, out);
    }
  }
  return out;
}

}  // namespace hicsync::analysis
