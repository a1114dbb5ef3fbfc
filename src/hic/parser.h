// Recursive-descent parser for hic.
//
// Grammar (informal; see DESIGN.md and the paper's Fig. 1):
//
//   program    := (pragma | typedef | thread)*
//   typedef    := 'type' IDENT '=' typespec ';'
//              |  'union' IDENT '{' (typespec IDENT ';')+ '}' ';'?
//   typespec   := 'int' | 'char' | 'message' | 'bits' '<' INT '>' | IDENT
//   thread     := 'thread' IDENT '(' ')' '{' (decl | stmt)* '}'
//   decl       := typespec IDENT ('[' INT ']')? (',' IDENT ('['INT']')?)* ';'
//   stmt       := [pragma*] core_stmt
//   core_stmt  := lvalue '=' expr ';' | if | case | for | while
//              |  'break' ';' | 'continue' ';' | block
//   case       := 'case' '(' expr ')' '{' arm+ '}'
//   arm        := ('when' INT | 'default') ':' core_stmt*
//   pragma     := '#' IDENT '{' args '}'
//
// Producer/consumer pragmas attach to the next statement in the same thread.
#pragma once

#include <vector>

#include "hic/ast.h"
#include "hic/token.h"
#include "support/diagnostics.h"

namespace hicsync::hic {

class Parser {
 public:
  Parser(std::vector<Token> tokens, support::DiagnosticEngine& diags);

  /// Parses a whole program. Diagnostics are reported through the engine;
  /// the returned Program reflects what could be parsed.
  [[nodiscard]] Program parse_program();

 private:
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const;
  [[nodiscard]] bool at(TokenKind k) const { return peek().kind == k; }
  const Token& advance();
  bool accept(TokenKind k);
  const Token& expect(TokenKind k, const char* context);

  [[nodiscard]] bool at_typespec() const;

  Pragma parse_pragma();
  TypeDef parse_typedef();
  TypeDef parse_union();
  void parse_typespec(std::string& type_name, int& bits_width);
  ThreadDecl parse_thread();
  VarDecl parse_one_declarator(const std::string& type_name, int bits_width);
  void parse_decl(ThreadDecl& thread);
  StmtPtr parse_stmt();
  StmtPtr parse_core_stmt();
  StmtPtr parse_if();
  StmtPtr parse_case();
  StmtPtr parse_for();
  StmtPtr parse_while();
  StmtPtr parse_block();
  StmtPtr parse_assign(bool expect_semicolon);

  ExprPtr parse_expr();
  ExprPtr parse_binary_rhs(int min_prec, ExprPtr lhs);
  ExprPtr parse_unary();
  ExprPtr parse_postfix(ExprPtr base);
  ExprPtr parse_primary();

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  support::DiagnosticEngine& diags_;
};

/// Convenience: lex + parse a source buffer.
[[nodiscard]] Program parse_source(std::string_view source,
                                   support::DiagnosticEngine& diags);

}  // namespace hicsync::hic
