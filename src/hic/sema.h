// Semantic analysis for hic.
//
// Responsibilities:
//  * intern user types (bits<N>, unions, aliases) and resolve declarations;
//  * build one symbol table per thread and resolve every VarRef — including
//    cross-thread references to a producer's variable from a consumer
//    statement annotated with a matching #producer pragma;
//  * type-check expressions and statements;
//  * bind #producer/#consumer pragma pairs into Dependency records — this is
//    exactly the producer/consumer relationship list (§3 of the paper) that
//    drives memory allocation and both memory-organization generators;
//  * report the inconsistencies the pragma scheme can express (missing or
//    mismatched sides, duplicate producers, self-dependencies).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hic/ast.h"
#include "hic/symbol.h"
#include "support/diagnostics.h"

namespace hicsync::hic {

/// One consumer of a dependency: the consuming thread, the annotated
/// statement, and the destination variable it assigns.
struct DepConsumer {
  std::string thread;
  const Stmt* stmt = nullptr;
  Symbol* dest = nullptr;
  support::SourceLoc loc;
};

/// A fully bound inter-thread memory dependency (one produce site, one or
/// more consume sites). `consumers` preserves the order written in the
/// #consumer pragma — the event-driven organization uses it as the static
/// (modulo) schedule. The "dependency number" of §3.1 is consumers.size().
struct Dependency {
  std::string id;  // e.g. "mt1"
  std::string producer_thread;
  const Stmt* producer_stmt = nullptr;
  Symbol* shared_var = nullptr;  // the produced variable, placed in BRAM
  std::vector<DepConsumer> consumers;
  support::SourceLoc loc;

  [[nodiscard]] int dependency_number() const {
    return static_cast<int>(consumers.size());
  }
};

/// Per-thread symbol table.
class SymbolTable {
 public:
  /// Returns nullptr if `name` is already declared.
  Symbol* declare(std::string name, std::string thread, const Type* type,
                  std::uint64_t array_size, support::SourceLoc loc);
  [[nodiscard]] Symbol* lookup(const std::string& name) const;
  [[nodiscard]] std::vector<Symbol*> symbols() const;

 private:
  std::map<std::string, std::unique_ptr<Symbol>> table_;
  std::vector<Symbol*> order_;
  static int next_id_;
};

class Sema {
 public:
  Sema(Program& program, support::DiagnosticEngine& diags);

  /// Runs all analyses. Returns true if no errors were reported.
  bool run();

  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const std::vector<Dependency>& dependencies() const {
    return dependencies_;
  }
  /// Where `thread` consumes dependency `dep_id` (its #producer pragma);
  /// where the dependency is declared (its #consumer pragma) when `thread`
  /// is not one of its consumers; invalid when no dependency has that id.
  [[nodiscard]] support::SourceLoc dependency_loc(
      const std::string& dep_id, const std::string& thread = {}) const;
  [[nodiscard]] Symbol* lookup(const std::string& thread,
                               const std::string& var) const;
  [[nodiscard]] const SymbolTable* thread_table(
      const std::string& thread) const;
  /// All symbols of all threads, in declaration order.
  [[nodiscard]] std::vector<Symbol*> all_symbols() const;

  /// Resolves a declared type spelling (used by decls and unions).
  const Type* resolve_type(const std::string& type_name, int bits_width,
                           support::SourceLoc loc);

 private:
  void register_typedefs();
  void declare_thread_vars(ThreadDecl& thread);
  void check_thread_body(const ThreadDecl& thread);
  void check_stmt(const ThreadDecl& thread, Stmt& stmt, int loop_depth);
  const Type* check_expr(const ThreadDecl& thread, Expr& expr,
                         const Stmt* enclosing);
  Symbol* resolve_name(const ThreadDecl& thread, const std::string& name,
                       const Stmt* enclosing, support::SourceLoc loc);
  void bind_dependencies();

  Program& program_;
  support::DiagnosticEngine& diags_;
  std::map<std::string, std::unique_ptr<Type>> user_types_;
  std::map<std::string, SymbolTable> tables_;
  std::vector<Dependency> dependencies_;
};

}  // namespace hicsync::hic
