// Recursive-descent parser for MiniPy with precedence-climbing expressions.
#include <algorithm>
#include <map>

#include "obs/trace.hpp"
#include "seamless/ast.hpp"
#include "seamless/token.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::seamless {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Module parse_module() {
    Module mod;
    skip_newlines();
    while (!at(TokenKind::kEndOfFile)) {
      // Decorators: @name lines before the def (the paper writes @jit).
      std::vector<std::string> decorators;
      while (at(TokenKind::kAt)) {
        advance();
        decorators.push_back(expect(TokenKind::kName, "decorator name").text);
        expect(TokenKind::kNewline, "newline after decorator");
        skip_newlines();
      }
      require_kind(TokenKind::kDef, "expected 'def' at top level");
      advance();
      mod.functions.push_back(parse_function());
      mod.functions.back().decorators = std::move(decorators);
      skip_newlines();
    }
    return mod;
  }

  ExprPtr parse_single_expression() {
    ExprPtr e = parse_expr();
    skip_newlines();
    require_kind(TokenKind::kEndOfFile, "trailing input after expression");
    return e;
  }

 private:
  // ---- token plumbing -----------------------------------------------------

  const Token& peek() const { return tokens_[pos_]; }
  const Token& peek2() const {
    return tokens_[std::min(pos_ + 1, tokens_.size() - 1)];
  }
  bool at(TokenKind k) const { return peek().kind == k; }

  const Token& advance() { return tokens_[pos_++]; }

  bool accept(TokenKind k) {
    if (at(k)) {
      ++pos_;
      return true;
    }
    return false;
  }

  const Token& expect(TokenKind k, const char* what) {
    if (!at(k)) fail("expected ", what, ", found '", peek().describe(), "'");
    return advance();
  }

  void require_kind(TokenKind k, const char* msg) {
    if (!at(k)) fail(msg, " (found '", peek().describe(), "')");
  }

  // Out of line, so the recursive descent keeps small frames: no message
  // is built until a parse fails.
  template <class... Parts>
  [[noreturn, gnu::cold, gnu::noinline]] void fail(
      const Parts&... parts) const {
    throw CompileError(util::cat("line ", peek().line, ": ", parts...));
  }

  void skip_newlines() {
    while (accept(TokenKind::kNewline)) {
    }
  }

  // ---- nesting limit (kMaxNesting) ------------------------------------------

  // Runs one parse step a level deeper: a bracket's contents, a unary
  // operand, a block's statement. A failed parse abandons the parser, so
  // depth_ is not unwound on a throw.
  template <class T>
  T nested(T (Parser::*step)()) {
    if (depth_ == kMaxNesting) {
      fail("nesting deeper than ", kMaxNesting, " levels");
    }
    ++depth_;
    T out = (this->*step)();
    --depth_;
    return out;
  }

  // Gives a new operator node its height and checks its deepest leaf.
  ExprPtr sized(ExprPtr e) const {
    int below = 0;
    if (e->lhs) below = e->lhs->height;
    if (e->rhs) below = std::max(below, e->rhs->height);
    for (const auto& arg : e->args) below = std::max(below, arg->height);
    e->height = below + 1;
    if (depth_ + e->height > kMaxNesting) {
      fail("nesting deeper than ", kMaxNesting, " levels");
    }
    return e;
  }

  // ---- declarations ---------------------------------------------------------

  FunctionDef parse_function() {
    FunctionDef fn;
    fn.line = tokens_[pos_ - 1].line;  // the 'def'
    fn.name = expect(TokenKind::kName, "function name").text;
    expect(TokenKind::kLParen, "'('");
    if (!at(TokenKind::kRParen)) {
      for (;;) {
        fn.params.push_back(expect(TokenKind::kName, "parameter name").text);
        if (!accept(TokenKind::kComma)) break;
      }
    }
    expect(TokenKind::kRParen, "')'");
    expect(TokenKind::kColon, "':'");
    fn.body = parse_block();
    return fn;
  }

  Block parse_block() {
    expect(TokenKind::kNewline, "newline before block");
    skip_newlines();
    expect(TokenKind::kIndent, "indented block");
    Block block;
    while (!at(TokenKind::kDedent) && !at(TokenKind::kEndOfFile)) {
      block.push_back(nested(&Parser::parse_statement));
      skip_newlines();
    }
    expect(TokenKind::kDedent, "dedent");
    require(!block.empty(), "empty block");
    return block;
  }

  // ---- statements -------------------------------------------------------------

  StmtPtr parse_statement() {
    const int line = peek().line;
    switch (peek().kind) {
      case TokenKind::kReturn: {
        advance();
        auto s = std::make_unique<Stmt>(StmtKind::kReturn, line);
        if (!at(TokenKind::kNewline)) s->value = parse_expr();
        expect(TokenKind::kNewline, "newline after return");
        return s;
      }
      case TokenKind::kPass: {
        advance();
        expect(TokenKind::kNewline, "newline after pass");
        return std::make_unique<Stmt>(StmtKind::kPass, line);
      }
      case TokenKind::kBreak: {
        advance();
        expect(TokenKind::kNewline, "newline after break");
        return std::make_unique<Stmt>(StmtKind::kBreak, line);
      }
      case TokenKind::kContinue: {
        advance();
        expect(TokenKind::kNewline, "newline after continue");
        return std::make_unique<Stmt>(StmtKind::kContinue, line);
      }
      case TokenKind::kIf:
        return parse_if();
      case TokenKind::kWhile: {
        advance();
        auto s = std::make_unique<Stmt>(StmtKind::kWhile, line);
        s->value = parse_expr();
        expect(TokenKind::kColon, "':' after while condition");
        s->body = parse_block();
        return s;
      }
      case TokenKind::kFor:
        return parse_for(line);
      default:
        return parse_assignment_or_expr(line);
    }
  }

  StmtPtr parse_if() {
    const int line = peek().line;
    auto s = std::make_unique<Stmt>(StmtKind::kIf, line);
    expect(TokenKind::kIf, "'if'");
    s->conditions.push_back(parse_expr());
    expect(TokenKind::kColon, "':' after if condition");
    s->arms.push_back(parse_block());
    skip_newlines();
    while (at(TokenKind::kElif)) {
      advance();
      s->conditions.push_back(parse_expr());
      expect(TokenKind::kColon, "':' after elif condition");
      s->arms.push_back(parse_block());
      skip_newlines();
    }
    if (at(TokenKind::kElse)) {
      advance();
      expect(TokenKind::kColon, "':' after else");
      s->orelse = parse_block();
    }
    return s;
  }

  StmtPtr parse_for(int line) {
    expect(TokenKind::kFor, "'for'");
    auto s = std::make_unique<Stmt>(StmtKind::kForRange, line);
    s->name = expect(TokenKind::kName, "loop variable").text;
    expect(TokenKind::kIn, "'in'");
    const Token& range_name = expect(TokenKind::kName, "range(...)");
    if (range_name.text != "range") {
      fail("only 'for <var> in range(...)' loops are supported");
    }
    expect(TokenKind::kLParen, "'(' after range");
    ExprPtr first = parse_expr();
    if (accept(TokenKind::kComma)) {
      s->start = std::move(first);
      s->stop = parse_expr();
      if (accept(TokenKind::kComma)) {
        s->step = parse_expr();
      }
    } else {
      s->stop = std::move(first);
    }
    expect(TokenKind::kRParen, "')' after range arguments");
    expect(TokenKind::kColon, "':' after for header");
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_assignment_or_expr(int line) {
    // name = / name op= ...
    if (at(TokenKind::kName)) {
      const TokenKind next = peek2().kind;
      if (next == TokenKind::kEq || next == TokenKind::kPlusEq ||
          next == TokenKind::kMinusEq || next == TokenKind::kStarEq ||
          next == TokenKind::kSlashEq) {
        const std::string name = advance().text;
        const TokenKind op = advance().kind;
        StmtPtr s;
        if (op == TokenKind::kEq) {
          s = std::make_unique<Stmt>(StmtKind::kAssign, line);
        } else {
          s = std::make_unique<Stmt>(StmtKind::kAugAssign, line);
          s->bin_op = aug_op(op);
        }
        s->name = name;
        s->value = parse_expr();
        expect(TokenKind::kNewline, "newline after assignment");
        return s;
      }
    }
    // General expression; may turn out to be an index assignment.
    ExprPtr e = parse_expr();
    if (at(TokenKind::kEq) || at(TokenKind::kPlusEq) ||
        at(TokenKind::kMinusEq) || at(TokenKind::kStarEq) ||
        at(TokenKind::kSlashEq)) {
      if (e->kind != ExprKind::kIndex) {
        fail("only names and subscripts can be assigned");
      }
      const TokenKind op = advance().kind;
      auto s = std::make_unique<Stmt>(StmtKind::kIndexAssign, line);
      s->target = std::move(e->lhs);
      s->index = std::move(e->rhs);
      if (op != TokenKind::kEq) {
        s->augmented = true;
        s->bin_op = aug_op(op);
      }
      s->value = parse_expr();
      expect(TokenKind::kNewline, "newline after assignment");
      return s;
    }
    auto s = std::make_unique<Stmt>(StmtKind::kExpr, line);
    s->value = std::move(e);
    expect(TokenKind::kNewline, "newline after expression");
    return s;
  }

  static BinOp aug_op(TokenKind k) {
    switch (k) {
      case TokenKind::kPlusEq: return BinOp::kAdd;
      case TokenKind::kMinusEq: return BinOp::kSub;
      case TokenKind::kStarEq: return BinOp::kMul;
      case TokenKind::kSlashEq: return BinOp::kDiv;
      default: throw CompileError("internal: bad augmented operator");
    }
  }

  // ---- expressions (precedence climbing) -------------------------------------
  // or < and < not < comparison < +- < */ // % < unary - < ** < postfix

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at(TokenKind::kOr)) {
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBoolOp, line);
      e->is_and = false;
      e->lhs = std::move(lhs);
      e->rhs = parse_and();
      lhs = sized(std::move(e));
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (at(TokenKind::kAnd)) {
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBoolOp, line);
      e->is_and = true;
      e->lhs = std::move(lhs);
      e->rhs = parse_not();
      lhs = sized(std::move(e));
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (at(TokenKind::kNot)) {
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kUnary, line);
      e->unary_op = UnaryOp::kNot;
      e->lhs = nested(&Parser::parse_not);
      return sized(std::move(e));
    }
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    for (;;) {
      BinOp op;
      switch (peek().kind) {
        case TokenKind::kEqEq: op = BinOp::kEq; break;
        case TokenKind::kNotEq: op = BinOp::kNe; break;
        case TokenKind::kLt: op = BinOp::kLt; break;
        case TokenKind::kLe: op = BinOp::kLe; break;
        case TokenKind::kGt: op = BinOp::kGt; break;
        case TokenKind::kGe: op = BinOp::kGe; break;
        default: return lhs;
      }
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBinary, line);
      e->bin_op = op;
      e->lhs = std::move(lhs);
      e->rhs = parse_additive();
      lhs = sized(std::move(e));
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    for (;;) {
      BinOp op;
      if (at(TokenKind::kPlus)) op = BinOp::kAdd;
      else if (at(TokenKind::kMinus)) op = BinOp::kSub;
      else return lhs;
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBinary, line);
      e->bin_op = op;
      e->lhs = std::move(lhs);
      e->rhs = parse_multiplicative();
      lhs = sized(std::move(e));
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      BinOp op;
      if (at(TokenKind::kStar)) op = BinOp::kMul;
      else if (at(TokenKind::kSlash)) op = BinOp::kDiv;
      else if (at(TokenKind::kDoubleSlash)) op = BinOp::kFloorDiv;
      else if (at(TokenKind::kPercent)) op = BinOp::kMod;
      else return lhs;
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBinary, line);
      e->bin_op = op;
      e->lhs = std::move(lhs);
      e->rhs = parse_unary();
      lhs = sized(std::move(e));
    }
  }

  ExprPtr parse_unary() {
    if (at(TokenKind::kMinus)) {
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kUnary, line);
      e->unary_op = UnaryOp::kNeg;
      e->lhs = nested(&Parser::parse_unary);
      return sized(std::move(e));
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_postfix();
    if (at(TokenKind::kDoubleStar)) {
      const int line = advance().line;
      auto e = std::make_unique<Expr>(ExprKind::kBinary, line);
      e->bin_op = BinOp::kPow;
      e->lhs = std::move(base);
      // Right-associative, binds tighter than unary -.
      e->rhs = nested(&Parser::parse_unary);
      return sized(std::move(e));
    }
    return base;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      if (at(TokenKind::kLBracket)) {
        const int line = advance().line;
        auto idx = std::make_unique<Expr>(ExprKind::kIndex, line);
        idx->lhs = std::move(e);
        idx->rhs = nested(&Parser::parse_expr);
        expect(TokenKind::kRBracket, "']'");
        e = sized(std::move(idx));
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        advance();
        auto e = std::make_unique<Expr>(ExprKind::kIntLit, t.line);
        e->int_value = t.int_value;
        return e;
      }
      case TokenKind::kFloat: {
        advance();
        auto e = std::make_unique<Expr>(ExprKind::kFloatLit, t.line);
        e->float_value = t.float_value;
        return e;
      }
      case TokenKind::kString: {
        advance();
        auto e = std::make_unique<Expr>(ExprKind::kStringLit, t.line);
        e->str_value = t.text;
        return e;
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        advance();
        auto e = std::make_unique<Expr>(ExprKind::kBoolLit, t.line);
        e->bool_value = t.kind == TokenKind::kTrue;
        return e;
      }
      case TokenKind::kNone: {
        advance();
        return std::make_unique<Expr>(ExprKind::kNoneLit, t.line);
      }
      case TokenKind::kName: {
        advance();
        if (at(TokenKind::kLParen)) {
          advance();
          auto e = std::make_unique<Expr>(ExprKind::kCall, t.line);
          e->str_value = t.text;
          if (!at(TokenKind::kRParen)) {
            for (;;) {
              e->args.push_back(nested(&Parser::parse_expr));
              if (!accept(TokenKind::kComma)) break;
            }
          }
          expect(TokenKind::kRParen, "')' after call arguments");
          return sized(std::move(e));
        }
        auto e = std::make_unique<Expr>(ExprKind::kName, t.line);
        e->str_value = t.text;
        return e;
      }
      case TokenKind::kLParen: {
        advance();
        ExprPtr e = nested(&Parser::parse_expr);
        expect(TokenKind::kRParen, "')'");
        return e;
      }
      default:
        fail("unexpected token '", t.describe(), "' in expression");
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // levels open at the current token (see kMaxNesting)
};

}  // namespace

const FunctionDef& Module::function(const std::string& name) const {
  for (const auto& fn : functions) {
    if (fn.name == name) return fn;
  }
  throw CompileError("module has no function '" + name + "'");
}

Module parse(const std::string& source) {
  obs::Span span("parse", "seamless");  // nests the lex span inside it
  if (span.active()) {
    span.arg("source_bytes", static_cast<std::int64_t>(source.size()));
  }
  Parser parser(tokenize(source));
  return parser.parse_module();
}

ExprPtr parse_expression(const std::string& source) {
  Parser parser(tokenize(source));
  return parser.parse_single_expression();
}

}  // namespace pyhpc::seamless
