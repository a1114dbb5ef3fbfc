#include "hic/sema.h"

#include <algorithm>
#include <set>

namespace hicsync::hic {

int SymbolTable::next_id_ = 0;

Symbol* SymbolTable::declare(std::string name, std::string thread,
                             const Type* type, std::uint64_t array_size,
                             support::SourceLoc loc) {
  if (table_.count(name) != 0) return nullptr;
  auto sym = std::make_unique<Symbol>(name, std::move(thread), type,
                                      array_size, loc, next_id_++);
  Symbol* raw = sym.get();
  order_.push_back(raw);
  table_.emplace(std::move(name), std::move(sym));
  return raw;
}

Symbol* SymbolTable::lookup(const std::string& name) const {
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : it->second.get();
}

std::vector<Symbol*> SymbolTable::symbols() const { return order_; }

Sema::Sema(Program& program, support::DiagnosticEngine& diags)
    : program_(program), diags_(diags) {}

bool Sema::run() {
  std::size_t errors_before = diags_.error_count();

  register_typedefs();

  // Duplicate thread names.
  std::set<std::string> thread_names;
  for (const auto& t : program_.threads) {
    if (!thread_names.insert(t.name).second) {
      diags_.error(t.loc, "duplicate thread name '" + t.name + "'");
    }
  }

  for (auto& thread : program_.threads) declare_thread_vars(thread);
  // Dependencies must be bound before bodies are checked: consumer
  // statements reference the producer's variable by name, which only
  // resolves through the statement's #producer pragma.
  bind_dependencies();
  for (auto& thread : program_.threads) check_thread_body(thread);

  return diags_.error_count() == errors_before;
}

void Sema::register_typedefs() {
  for (const auto& td : program_.typedefs) {
    if (user_types_.count(td.name) != 0) {
      diags_.error(td.loc, "duplicate type name '" + td.name + "'");
      continue;
    }
    if (td.is_union) {
      std::vector<Type::UnionMember> members;
      std::set<std::string> seen;
      for (const auto& m : td.members) {
        if (!seen.insert(m.name).second) {
          diags_.error(td.loc, "duplicate union member '" + m.name + "'");
          continue;
        }
        const Type* mt = resolve_type(m.type_name, m.bits_width, td.loc);
        members.push_back(Type::UnionMember{m.name, mt});
      }
      user_types_.emplace(td.name, Type::make_union(td.name, members));
    } else if (td.bits_width > 0) {
      user_types_.emplace(td.name, Type::make_bits(td.bits_width, td.name));
    } else if (!td.members.empty()) {
      // Alias of a named type: keep the aliased width under the new name.
      const Type* base =
          resolve_type(td.members[0].type_name, 0, td.loc);
      user_types_.emplace(td.name,
                          Type::make_bits(base->bit_width(), td.name));
    } else {
      diags_.error(td.loc, "malformed type definition '" + td.name + "'");
    }
  }
}

const Type* Sema::resolve_type(const std::string& type_name, int bits_width,
                               support::SourceLoc loc) {
  if (type_name == "int") return Type::int_type();
  if (type_name == "char") return Type::char_type();
  if (type_name == "message") return Type::message_type();
  if (type_name == "bits") {
    if (bits_width <= 0) {
      diags_.error(loc, "bits type requires a positive width");
      return Type::error_type();
    }
    // Intern per-width so repeated bits<N> share one Type.
    std::string key = "bits<" + std::to_string(bits_width) + ">";
    auto it = user_types_.find(key);
    if (it == user_types_.end()) {
      it = user_types_.emplace(key, Type::make_bits(bits_width)).first;
    }
    return it->second.get();
  }
  auto it = user_types_.find(type_name);
  if (it != user_types_.end()) return it->second.get();
  diags_.error(loc, "unknown type '" + type_name + "'");
  return Type::error_type();
}

void Sema::declare_thread_vars(ThreadDecl& thread) {
  SymbolTable& table = tables_[thread.name];
  for (auto& decl : thread.decls) {
    decl.type = resolve_type(decl.type_name, decl.bits_width, decl.loc);
    Symbol* sym = table.declare(decl.name, thread.name, decl.type,
                                decl.array_size, decl.loc);
    if (sym == nullptr) {
      diags_.error(decl.loc, "duplicate variable '" + decl.name +
                                 "' in thread '" + thread.name + "'");
      continue;
    }
    decl.symbol = sym;
  }
}

Symbol* Sema::lookup(const std::string& thread, const std::string& var) const {
  auto it = tables_.find(thread);
  if (it == tables_.end()) return nullptr;
  return it->second.lookup(var);
}

const SymbolTable* Sema::thread_table(const std::string& thread) const {
  auto it = tables_.find(thread);
  return it == tables_.end() ? nullptr : &it->second;
}

support::SourceLoc Sema::dependency_loc(const std::string& dep_id,
                                        const std::string& thread) const {
  const Dependency* declared = nullptr;
  for (const Dependency& d : dependencies_) {
    if (d.id != dep_id) continue;
    if (declared == nullptr) declared = &d;
    for (const DepConsumer& c : d.consumers) {
      if (c.thread == thread) return c.loc;
    }
  }
  return declared != nullptr ? declared->loc : support::SourceLoc{};
}

std::vector<Symbol*> Sema::all_symbols() const {
  std::vector<Symbol*> out;
  for (const auto& t : program_.threads) {
    auto it = tables_.find(t.name);
    if (it == tables_.end()) continue;
    for (Symbol* s : it->second.symbols()) out.push_back(s);
  }
  return out;
}

Symbol* Sema::resolve_name(const ThreadDecl& thread, const std::string& name,
                           const Stmt* enclosing, support::SourceLoc loc) {
  if (Symbol* local = lookup(thread.name, name)) return local;
  // Cross-thread reference: legal only when the enclosing statement carries
  // a #producer pragma whose produced variable has this name.
  if (enclosing != nullptr) {
    for (const Pragma& p : enclosing->pragmas) {
      if (p.kind != PragmaKind::Producer) continue;
      for (const DepEndpoint& ep : p.endpoints) {
        if (ep.var == name) {
          if (Symbol* remote = lookup(ep.thread, ep.var)) return remote;
        }
      }
    }
  }
  diags_.error(loc, "unknown variable '" + name + "' in thread '" +
                        thread.name + "'");
  return nullptr;
}

void Sema::check_thread_body(const ThreadDecl& thread) {
  for (const auto& stmt : thread.body) {
    check_stmt(thread, *stmt, /*loop_depth=*/0);
  }
}

void Sema::check_stmt(const ThreadDecl& thread, Stmt& stmt, int loop_depth) {
  switch (stmt.kind) {
    case StmtKind::Assign: {
      const Type* lhs_type = check_expr(thread, *stmt.target, &stmt);
      // The assignment target must be an lvalue rooted at a local variable.
      const Expr* root = stmt.target.get();
      while (root->kind == ExprKind::Index ||
             root->kind == ExprKind::Member) {
        root = root->operands[0].get();
      }
      if (root->kind != ExprKind::VarRef) {
        diags_.error(stmt.target->loc, "assignment target is not an lvalue");
      } else if (root->symbol != nullptr &&
                 root->symbol->thread() != thread.name) {
        diags_.error(stmt.target->loc,
                     "cannot assign to variable '" + root->symbol->name() +
                         "' owned by thread '" + root->symbol->thread() +
                         "' (only the producer thread writes shared data)");
      }
      const Type* rhs_type = check_expr(thread, *stmt.value, &stmt);
      // Message variables accept other messages or opaque call results
      // (a receive function yields a fresh message handle); arithmetic
      // values cannot become messages.
      if (lhs_type != nullptr && rhs_type != nullptr &&
          !lhs_type->is_error() && !rhs_type->is_error() &&
          lhs_type->kind() == TypeKind::Message &&
          rhs_type->kind() != TypeKind::Message &&
          stmt.value->kind != ExprKind::Call) {
        diags_.error(stmt.loc, "cannot assign a non-message value to a "
                               "message variable");
      }
      break;
    }
    case StmtKind::If: {
      check_expr(thread, *stmt.cond, &stmt);
      for (auto& s : stmt.then_body) check_stmt(thread, *s, loop_depth);
      for (auto& s : stmt.else_body) check_stmt(thread, *s, loop_depth);
      break;
    }
    case StmtKind::Case: {
      check_expr(thread, *stmt.cond, &stmt);
      std::set<std::uint64_t> seen;
      for (auto& arm : stmt.arms) {
        if (!arm.is_default && !seen.insert(arm.value).second) {
          diags_.error(arm.loc, "duplicate case arm value " +
                                    std::to_string(arm.value));
        }
        for (auto& s : arm.body) check_stmt(thread, *s, loop_depth);
      }
      break;
    }
    case StmtKind::For: {
      check_stmt(thread, *stmt.init, loop_depth);
      check_expr(thread, *stmt.cond, &stmt);
      check_stmt(thread, *stmt.step, loop_depth);
      for (auto& s : stmt.body) check_stmt(thread, *s, loop_depth + 1);
      break;
    }
    case StmtKind::While: {
      check_expr(thread, *stmt.cond, &stmt);
      for (auto& s : stmt.body) check_stmt(thread, *s, loop_depth + 1);
      break;
    }
    case StmtKind::Break:
    case StmtKind::Continue: {
      if (loop_depth == 0) {
        diags_.error(stmt.loc,
                     stmt.kind == StmtKind::Break
                         ? "'break' outside of a loop"
                         : "'continue' outside of a loop");
      }
      break;
    }
    case StmtKind::Block: {
      for (auto& s : stmt.body) check_stmt(thread, *s, loop_depth);
      break;
    }
  }
}

const Type* Sema::check_expr(const ThreadDecl& thread, Expr& expr,
                             const Stmt* enclosing) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      expr.type = Type::int_type();
      return expr.type;
    case ExprKind::CharLit:
      expr.type = Type::char_type();
      return expr.type;
    case ExprKind::VarRef: {
      Symbol* sym = resolve_name(thread, expr.name, enclosing, expr.loc);
      if (sym == nullptr) {
        expr.type = Type::error_type();
        return expr.type;
      }
      expr.symbol = sym;
      expr.type = sym->type();
      return expr.type;
    }
    case ExprKind::Index: {
      const Type* base = check_expr(thread, *expr.operands[0], enclosing);
      check_expr(thread, *expr.operands[1], enclosing);
      const Expr* base_expr = expr.operands[0].get();
      if (base_expr->kind == ExprKind::VarRef &&
          base_expr->symbol != nullptr && !base_expr->symbol->is_array()) {
        diags_.error(expr.loc, "variable '" + base_expr->symbol->name() +
                                   "' is not an array");
      }
      expr.symbol = base_expr->symbol;
      expr.type = base;
      return expr.type;
    }
    case ExprKind::Member: {
      const Type* base = check_expr(thread, *expr.operands[0], enclosing);
      expr.symbol = expr.operands[0]->symbol;
      if (base == nullptr || base->is_error()) {
        expr.type = Type::error_type();
        return expr.type;
      }
      if (base->kind() != TypeKind::Union) {
        diags_.error(expr.loc,
                     "member access on non-union type '" + base->name() + "'");
        expr.type = Type::error_type();
        return expr.type;
      }
      const Type::UnionMember* m = base->find_member(expr.name);
      if (m == nullptr) {
        diags_.error(expr.loc, "union '" + base->name() +
                                   "' has no member '" + expr.name + "'");
        expr.type = Type::error_type();
        return expr.type;
      }
      expr.type = m->type;
      return expr.type;
    }
    case ExprKind::Unary: {
      const Type* t = check_expr(thread, *expr.operands[0], enclosing);
      if (t != nullptr && t->kind() == TypeKind::Message) {
        diags_.error(expr.loc, "arithmetic on a message value");
      }
      expr.type = (expr.unary_op == UnaryOp::Not) ? Type::int_type() : t;
      return expr.type;
    }
    case ExprKind::Binary: {
      const Type* lhs = check_expr(thread, *expr.operands[0], enclosing);
      const Type* rhs = check_expr(thread, *expr.operands[1], enclosing);
      if ((lhs != nullptr && lhs->kind() == TypeKind::Message) ||
          (rhs != nullptr && rhs->kind() == TypeKind::Message)) {
        diags_.error(expr.loc, "arithmetic on a message value");
      }
      switch (expr.binary_op) {
        case BinaryOp::Eq:
        case BinaryOp::Ne:
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
        case BinaryOp::LogAnd:
        case BinaryOp::LogOr:
          expr.type = Type::int_type();
          break;
        default: {
          // Usual widening: result takes the wider operand's type.
          const Type* wide = lhs;
          if (wide == nullptr ||
              (rhs != nullptr && rhs->bit_width() > wide->bit_width())) {
            wide = rhs;
          }
          expr.type = wide != nullptr ? wide : Type::error_type();
        }
      }
      return expr.type;
    }
    case ExprKind::Call: {
      for (auto& arg : expr.operands) check_expr(thread, *arg, enclosing);
      // Calls are opaque combinational computations (paper Fig. 1: f, g, h).
      // Result type defaults to int; arguments constrain nothing further.
      expr.type = Type::int_type();
      return expr.type;
    }
  }
  expr.type = Type::error_type();
  return expr.type;
}

void Sema::bind_dependencies() {
  // Gather producer-side (#consumer) and consumer-side (#producer) pragmas
  // with the statements they annotate.
  struct ProducerSite {
    std::string thread;
    Stmt* stmt;
    const Pragma* pragma;
  };
  struct ConsumerSite {
    std::string thread;
    Stmt* stmt;
    const Pragma* pragma;
  };
  std::map<std::string, std::vector<ProducerSite>> producer_sites;
  std::map<std::string, std::vector<ConsumerSite>> consumer_sites;

  // Statements can nest; walk every statement in every thread.
  auto walk = [&](auto&& self, const std::string& thread,
                  Stmt& stmt) -> void {
    for (const Pragma& p : stmt.pragmas) {
      if (p.kind == PragmaKind::Consumer) {
        producer_sites[p.dep_id].push_back(ProducerSite{thread, &stmt, &p});
      } else if (p.kind == PragmaKind::Producer) {
        consumer_sites[p.dep_id].push_back(ConsumerSite{thread, &stmt, &p});
      }
    }
    auto walk_list = [&](std::vector<StmtPtr>& list) {
      for (auto& s : list) self(self, thread, *s);
    };
    walk_list(stmt.then_body);
    walk_list(stmt.else_body);
    walk_list(stmt.body);
    for (auto& arm : stmt.arms) {
      for (auto& s : arm.body) self(self, thread, *s);
    }
    if (stmt.init) self(self, thread, *stmt.init);
    if (stmt.step) self(self, thread, *stmt.step);
  };
  for (auto& thread : program_.threads) {
    for (auto& s : thread.body) walk(walk, thread.name, *s);
  }

  std::set<std::string> all_ids;
  for (const auto& [id, _] : producer_sites) all_ids.insert(id);
  for (const auto& [id, _] : consumer_sites) all_ids.insert(id);

  for (const std::string& id : all_ids) {
    auto pit = producer_sites.find(id);
    auto cit = consumer_sites.find(id);
    if (pit == producer_sites.end()) {
      for (const auto& site : cit->second) {
        diags_.error(site.pragma->loc,
                     "dependency '" + id + "' has #producer pragmas but no "
                     "#consumer pragma at the producing statement");
      }
      continue;
    }
    if (pit->second.size() > 1) {
      diags_.error(pit->second[1].pragma->loc,
                   "dependency '" + id + "' has multiple #consumer pragmas; "
                   "each dependency has exactly one producing statement");
      continue;
    }
    const ProducerSite& prod = pit->second[0];

    // The producing statement must be an assignment; its target variable is
    // the shared datum.
    if (prod.stmt->kind != StmtKind::Assign) {
      diags_.error(prod.pragma->loc,
                   "#consumer pragma must annotate an assignment");
      continue;
    }
    const Expr* target_root = prod.stmt->target.get();
    while (target_root->kind == ExprKind::Index ||
           target_root->kind == ExprKind::Member) {
      target_root = target_root->operands[0].get();
    }
    if (target_root->kind != ExprKind::VarRef) {
      diags_.error(prod.pragma->loc, "producing statement has no variable "
                                     "target");
      continue;
    }
    Symbol* shared = lookup(prod.thread, target_root->name);
    if (shared == nullptr) {
      diags_.error(prod.pragma->loc,
                   "produced variable '" + target_root->name +
                       "' is not declared in thread '" + prod.thread + "'");
      continue;
    }

    Dependency dep;
    dep.id = id;
    dep.producer_thread = prod.thread;
    dep.producer_stmt = prod.stmt;
    dep.shared_var = shared;
    dep.loc = prod.pragma->loc;

    // Each endpoint in the #consumer pragma must have a matching consumer
    // site: same dep id, a #producer pragma naming [producer_thread, var].
    bool ok = true;
    for (const DepEndpoint& ep : prod.pragma->endpoints) {
      if (ep.thread == prod.thread) {
        diags_.error(ep.loc, "dependency '" + id + "' lists its own producer "
                             "thread as a consumer (self-dependency)");
        ok = false;
        continue;
      }
      if (program_.find_thread(ep.thread) == nullptr) {
        diags_.error(ep.loc, "unknown consumer thread '" + ep.thread + "'");
        ok = false;
        continue;
      }
      const ConsumerSite* match = nullptr;
      if (cit != consumer_sites.end()) {
        for (const auto& site : cit->second) {
          if (site.thread != ep.thread) continue;
          // The #producer pragma on the consumer side must point back.
          const DepEndpoint& back = site.pragma->endpoints[0];
          if (back.thread != prod.thread || back.var != shared->name()) {
            diags_.error(site.pragma->loc,
                         "#producer pragma for '" + id + "' names [" +
                             back.thread + "," + back.var +
                             "] but the producing statement assigns " +
                             shared->qualified_name());
            continue;
          }
          match = &site;
          break;
        }
      }
      if (match == nullptr) {
        diags_.error(ep.loc,
                     "consumer thread '" + ep.thread + "' has no #producer{" +
                         id + ", ...} pragma matching this dependency");
        ok = false;
        continue;
      }
      DepConsumer consumer;
      consumer.thread = ep.thread;
      consumer.stmt = match->stmt;
      consumer.loc = match->pragma->loc;
      // The consumer destination is the endpoint's named variable; verify it
      // matches what the consuming statement assigns.
      Symbol* dest = lookup(ep.thread, ep.var);
      if (dest == nullptr) {
        diags_.error(ep.loc, "consumer variable '" + ep.var +
                                 "' is not declared in thread '" + ep.thread +
                                 "'");
        ok = false;
        continue;
      }
      if (match->stmt->kind == StmtKind::Assign) {
        const Expr* dst_root = match->stmt->target.get();
        while (dst_root->kind == ExprKind::Index ||
               dst_root->kind == ExprKind::Member) {
          dst_root = dst_root->operands[0].get();
        }
        if (dst_root->kind == ExprKind::VarRef && dst_root->name != ep.var) {
          diags_.warning(ep.loc, "consumer endpoint names '" + ep.var +
                                     "' but the consuming statement assigns "
                                     "'" + dst_root->name + "'");
        }
      }
      consumer.dest = dest;
      dep.consumers.push_back(std::move(consumer));
    }

    // Also flag consumer sites for this id that the producer never listed.
    if (cit != consumer_sites.end()) {
      for (const auto& site : cit->second) {
        bool listed = false;
        for (const DepEndpoint& ep : prod.pragma->endpoints) {
          if (ep.thread == site.thread) {
            listed = true;
            break;
          }
        }
        if (!listed) {
          diags_.error(site.pragma->loc,
                       "thread '" + site.thread + "' declares #producer{" +
                           id + ", ...} but the producing statement's "
                           "#consumer pragma does not list it");
          ok = false;
        }
      }
    }

    if (ok && !dep.consumers.empty()) {
      shared->mark_shared();
      dependencies_.push_back(std::move(dep));
    }
  }

  // Order dependencies by the program order of their producing statements
  // (thread order, then statement order). The event-driven organization's
  // modulo schedule visits producers in this order, so it must match the
  // order a producing thread actually issues its writes.
  std::map<const Stmt*, int> stmt_order;
  int position = 0;
  auto number = [&](auto&& self, const Stmt& s) -> void {
    stmt_order[&s] = position++;
    auto list = [&](const std::vector<StmtPtr>& body) {
      for (const auto& child : body) self(self, *child);
    };
    list(s.then_body);
    list(s.else_body);
    list(s.body);
    for (const auto& arm : s.arms) {
      for (const auto& child : arm.body) self(self, *child);
    }
    if (s.init) self(self, *s.init);
    if (s.step) self(self, *s.step);
  };
  std::map<std::string, int> thread_order;
  for (std::size_t i = 0; i < program_.threads.size(); ++i) {
    thread_order[program_.threads[i].name] = static_cast<int>(i);
    for (const auto& s : program_.threads[i].body) number(number, *s);
  }
  std::stable_sort(dependencies_.begin(), dependencies_.end(),
                   [&](const Dependency& a, const Dependency& b) {
                     int ta = thread_order[a.producer_thread];
                     int tb = thread_order[b.producer_thread];
                     if (ta != tb) return ta < tb;
                     return stmt_order[a.producer_stmt] <
                            stmt_order[b.producer_stmt];
                   });
}

}  // namespace hicsync::hic
