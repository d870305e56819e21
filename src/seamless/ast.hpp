// Abstract syntax tree for MiniPy. Nodes carry a kind tag so the two
// back-ends (tree-walking interpreter, typed JIT) can switch-dispatch
// without RTTI.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pyhpc::seamless {

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,       // true division (always float)
  kFloorDiv,
  kMod,
  kPow,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

enum class UnaryOp { kNeg, kNot };

enum class ExprKind {
  kIntLit,
  kFloatLit,
  kBoolLit,
  kNoneLit,
  kStringLit,
  kName,
  kUnary,
  kBinary,
  kBoolOp,   // short-circuit and/or
  kCall,
  kIndex,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  int line = 0;

  // Literal payloads.
  std::int64_t int_value = 0;
  double float_value = 0.0;
  bool bool_value = false;
  std::string str_value;  // kStringLit text or kName/kCall identifier

  // Operator payloads.
  BinOp bin_op = BinOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;
  bool is_and = false;  // kBoolOp

  ExprPtr lhs;                 // kUnary operand / kBinary / kBoolOp / kIndex target
  ExprPtr rhs;                 // kBinary / kBoolOp / kIndex index
  std::vector<ExprPtr> args;   // kCall arguments
  int height = 1;              // nodes on the longest path down, this included

  explicit Expr(ExprKind k, int ln) : kind(k), line(ln) {}
};

enum class StmtKind {
  kExpr,
  kAssign,       // name = value
  kAugAssign,    // name op= value
  kIndexAssign,  // target[index] = value (or op=)
  kIf,
  kWhile,
  kForRange,     // for name in range(start, stop, step)
  kReturn,
  kBreak,
  kContinue,
  kPass,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

struct Stmt {
  StmtKind kind;
  int line = 0;

  std::string name;  // kAssign/kAugAssign/kForRange loop variable
  BinOp bin_op = BinOp::kAdd;  // kAugAssign / augmented kIndexAssign
  bool augmented = false;      // kIndexAssign

  ExprPtr value;   // assigned value / return value / expression
  ExprPtr target;  // kIndexAssign target
  ExprPtr index;   // kIndexAssign index
  ExprPtr start;   // kForRange
  ExprPtr stop;    // kForRange
  ExprPtr step;    // kForRange (may be null -> 1)

  // kIf: conditions[i] guards arms[i]; orelse runs when all fail.
  std::vector<ExprPtr> conditions;
  std::vector<Block> arms;
  Block orelse;

  Block body;  // kWhile / kForRange

  explicit Stmt(StmtKind k, int ln) : kind(k), line(ln) {}
};

struct FunctionDef {
  std::string name;
  std::vector<std::string> params;
  std::vector<std::string> decorators;  // e.g. {"jit"} for @jit
  Block body;
  int line = 0;

  bool has_decorator(const std::string& d) const {
    for (const auto& dec : decorators) {
      if (dec == d) return true;
    }
    return false;
  }
};

struct Module {
  std::vector<FunctionDef> functions;

  const FunctionDef& function(const std::string& name) const;
};

/// The deepest a leaf may sit in parsed source. Each enclosing indented
/// block, bracket and unary operator is a level, and so is each operator
/// node above the leaf: a left-associative chain of n operators puts its
/// leftmost operand n levels down. The limit bounds the parser's own
/// recursion and every recursive walk of the tree after it (interpreter,
/// JIT, destructor), so deep source is a CompileError, not a stack
/// overflow.
inline constexpr int kMaxNesting = 500;

/// Parses MiniPy source into a module of function definitions. Throws
/// CompileError with line information on syntax errors and on nesting
/// deeper than kMaxNesting.
Module parse(const std::string& source);

/// Parses a single expression (used by tests and the embed API), with the
/// same errors and nesting limit as parse().
ExprPtr parse_expression(const std::string& source);

}  // namespace pyhpc::seamless
