// Type inference and typed-register code generation for the JIT tier.
#include "seamless/jit.hpp"

#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "util/string_util.hpp"

namespace pyhpc::seamless {

std::string jit_type_name(JitType t) {
  switch (t) {
    case JitType::kUnknown: return "unknown";
    case JitType::kNone: return "None";
    case JitType::kBool: return "bool";
    case JitType::kInt: return "int";
    case JitType::kFloat: return "float";
    case JitType::kArray: return "array";
  }
  return "?";
}

JitType jit_type_of(const Value& v) {
  if (v.is_bool()) return JitType::kBool;
  if (v.is_int()) return JitType::kInt;
  if (v.is_float()) return JitType::kFloat;
  if (v.is_array()) return JitType::kArray;
  if (v.is_none()) return JitType::kNone;
  throw NotJittable("values of type " + v.type_name() +
                    " are outside the typed subset");
}

namespace {

[[noreturn]] void not_jittable(int line, const std::string& msg) {
  throw NotJittable(util::cat("line ", line, ": ", msg));
}

bool is_numeric(JitType t) {
  return t == JitType::kBool || t == JitType::kInt || t == JitType::kFloat;
}

// Type join for the fixpoint: numeric widening only.
JitType join(JitType a, JitType b, int line) {
  if (a == JitType::kUnknown) return b;
  if (b == JitType::kUnknown) return a;
  if (a == b) return a;
  if (is_numeric(a) && is_numeric(b)) {
    if (a == JitType::kFloat || b == JitType::kFloat) return JitType::kFloat;
    return JitType::kInt;  // bool joins int
  }
  not_jittable(line, "variable takes incompatible types " + jit_type_name(a) +
                         " and " + jit_type_name(b));
}

// ---------------------------------------------------------------------------
// Pass 1: fixpoint type inference over the function body.
// ---------------------------------------------------------------------------

class TypeInferencer {
 public:
  TypeInferencer(const Module& module, const FunctionDef& fn,
                 const std::vector<JitType>& params)
      : module_(&module) {
    require<CompileError>(params.size() == fn.params.size(),
                          fn.name, ": parameter count mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
      require<CompileError>(params[i] != JitType::kUnknown &&
                                params[i] != JitType::kNone,
                            fn.name, ": untyped parameter");
      vars_[fn.params[i]] = params[i];
      param_locked_.insert(fn.params[i]);
    }
    // Fixpoint iteration.
    for (int pass = 0; pass < 16; ++pass) {
      changed_ = false;
      infer_block(fn.body);
      if (!changed_) break;
    }
    if (changed_) not_jittable(fn.line, "type inference did not converge");
  }

  const std::unordered_map<std::string, JitType>& variables() const {
    return vars_;
  }
  JitType return_type() const {
    return return_type_ == JitType::kUnknown ? JitType::kNone : return_type_;
  }

  JitType type_of_expr(const Expr& e) const { return infer_expr_const(e); }

 private:
  void set_var(const std::string& name, JitType t, int line) {
    // Parameters keep their declared type; int values flowing into a float
    // parameter are fine (the codegen converts), the reverse is not.
    auto it = vars_.find(name);
    if (it == vars_.end()) {
      vars_[name] = t;
      changed_ = true;
      return;
    }
    if (param_locked_.count(name)) {
      if (it->second == JitType::kFloat && (t == JitType::kInt || t == JitType::kBool)) {
        return;  // implicit widening at assignment
      }
      if (t != it->second) {
        not_jittable(line, "parameter '" + name + "' reassigned to " +
                               jit_type_name(t));
      }
      return;
    }
    const JitType joined = join(it->second, t, line);
    if (joined != it->second) {
      it->second = joined;
      changed_ = true;
    }
  }

  JitType infer_expr_const(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kIntLit: return JitType::kInt;
      case ExprKind::kFloatLit: return JitType::kFloat;
      case ExprKind::kBoolLit: return JitType::kBool;
      case ExprKind::kNoneLit:
        not_jittable(e.line, "None values are outside the typed subset");
      case ExprKind::kStringLit:
        not_jittable(e.line, "strings are outside the typed subset");
      case ExprKind::kName: {
        auto it = vars_.find(e.str_value);
        if (it == vars_.end()) return JitType::kUnknown;
        return it->second;
      }
      case ExprKind::kUnary: {
        const JitType t = infer_expr_const(*e.lhs);
        if (e.unary_op == UnaryOp::kNot) {
          if (!is_numeric(t) && t != JitType::kUnknown) {
            not_jittable(e.line, "'not' needs a numeric operand here");
          }
          return JitType::kBool;
        }
        if (t == JitType::kBool) return JitType::kInt;
        return t;
      }
      case ExprKind::kBinary: {
        const JitType lt = infer_expr_const(*e.lhs);
        const JitType rt = infer_expr_const(*e.rhs);
        switch (e.bin_op) {
          case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
          case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
            check_numeric(lt, e.line);
            check_numeric(rt, e.line);
            return JitType::kBool;
          case BinOp::kDiv:
            check_numeric(lt, e.line);
            check_numeric(rt, e.line);
            return JitType::kFloat;
          default:
            check_numeric(lt, e.line);
            check_numeric(rt, e.line);
            if (lt == JitType::kFloat || rt == JitType::kFloat) {
              return JitType::kFloat;
            }
            if (lt == JitType::kUnknown || rt == JitType::kUnknown) {
              return JitType::kUnknown;
            }
            return JitType::kInt;
        }
      }
      case ExprKind::kBoolOp: {
        const JitType lt = infer_expr_const(*e.lhs);
        const JitType rt = infer_expr_const(*e.rhs);
        if ((lt != JitType::kBool && lt != JitType::kUnknown) ||
            (rt != JitType::kBool && rt != JitType::kUnknown)) {
          not_jittable(e.line,
                       "and/or in the typed subset needs bool operands");
        }
        return JitType::kBool;
      }
      case ExprKind::kCall: return infer_call(e);
      case ExprKind::kIndex: {
        const JitType t = infer_expr_const(*e.lhs);
        if (t != JitType::kArray && t != JitType::kUnknown) {
          not_jittable(e.line, "only float64 arrays are subscriptable here");
        }
        const JitType it = infer_expr_const(*e.rhs);
        if (it == JitType::kFloat || it == JitType::kArray) {
          not_jittable(e.line, "array indices must be integers");
        }
        return JitType::kFloat;
      }
    }
    return JitType::kUnknown;
  }

  static void check_numeric(JitType t, int line) {
    if (t != JitType::kUnknown && !is_numeric(t)) {
      not_jittable(line, "arithmetic needs numeric operands, got " +
                             jit_type_name(t));
    }
  }

  JitType infer_call(const Expr& e) const {
    const std::string& name = e.str_value;
    auto arg_type = [&](std::size_t i) { return infer_expr_const(*e.args[i]); };
    // Module functions first (they shadow builtins, as in the interpreter).
    for (const auto& fn : module_->functions) {
      if (fn.name != name) continue;
      if (fn.params.size() != e.args.size()) {
        not_jittable(e.line, name + "(): argument count mismatch");
      }
      std::vector<JitType> types;
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        const JitType t = arg_type(i);
        if (t == JitType::kUnknown) return JitType::kUnknown;  // next pass
        types.push_back(t);
      }
      return callee_return_type(fn, types, e.line);
    }
    if (name == "len") {
      if (e.args.size() != 1 ||
          (arg_type(0) != JitType::kArray && arg_type(0) != JitType::kUnknown)) {
        not_jittable(e.line, "len() in the typed subset takes one array");
      }
      return JitType::kInt;
    }
    if (name == "sqrt") {
      if (e.args.size() != 1) not_jittable(e.line, "sqrt() takes 1 argument");
      check_numeric(arg_type(0), e.line);
      return JitType::kFloat;
    }
    if (name == "float") {
      if (e.args.size() != 1) not_jittable(e.line, "float() takes 1 argument");
      check_numeric(arg_type(0), e.line);
      return JitType::kFloat;
    }
    if (name == "int") {
      if (e.args.size() != 1) not_jittable(e.line, "int() takes 1 argument");
      check_numeric(arg_type(0), e.line);
      return JitType::kInt;
    }
    if (name == "abs") {
      if (e.args.size() != 1) not_jittable(e.line, "abs() takes 1 argument");
      const JitType t = arg_type(0);
      check_numeric(t, e.line);
      return t == JitType::kBool ? JitType::kInt : t;
    }
    if (name == "min" || name == "max") {
      if (e.args.size() != 2) {
        not_jittable(e.line, name + "() takes 2 arguments here");
      }
      check_numeric(arg_type(0), e.line);
      check_numeric(arg_type(1), e.line);
      return JitType::kFloat;
    }
    not_jittable(e.line, "call to '" + name +
                             "' is outside the typed subset (only module "
                             "functions and len, sqrt, abs, min, max, float, "
                             "int)");
  }

  // Return type of a module-function call for concrete argument types, by
  // running inference on the callee. A thread-local in-progress set turns
  // (mutual) recursion into NotJittable instead of infinite regress.
  JitType callee_return_type(const FunctionDef& fn,
                             const std::vector<JitType>& types,
                             int line) const {
    std::string key = fn.name;
    for (auto t : types) {
      key += '/';
      key += jit_type_name(t);
    }
    thread_local std::set<std::string> in_progress;
    if (in_progress.count(key)) {
      not_jittable(line, "recursive call to '" + fn.name +
                             "' is outside the typed subset");
    }
    in_progress.insert(key);
    JitType rt;
    try {
      TypeInferencer inner(*module_, fn, types);
      rt = inner.return_type();
    } catch (...) {
      in_progress.erase(key);
      throw;
    }
    in_progress.erase(key);
    return rt;
  }

  void infer_block(const Block& block) {
    for (const auto& stmt : block) infer_stmt(*stmt);
  }

  void infer_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kExpr:
        (void)infer_expr_const(*stmt.value);
        return;
      case StmtKind::kAssign:
        set_var(stmt.name, infer_expr_const(*stmt.value), stmt.line);
        return;
      case StmtKind::kAugAssign: {
        auto it = vars_.find(stmt.name);
        if (it == vars_.end()) {
          not_jittable(stmt.line, "augmented assignment to undefined '" +
                                      stmt.name + "'");
        }
        // Type of (name op value):
        JitType t;
        if (stmt.bin_op == BinOp::kDiv) {
          t = JitType::kFloat;
        } else {
          const JitType rt = infer_expr_const(*stmt.value);
          check_numeric(it->second, stmt.line);
          check_numeric(rt, stmt.line);
          t = (it->second == JitType::kFloat || rt == JitType::kFloat)
                  ? JitType::kFloat
                  : JitType::kInt;
        }
        set_var(stmt.name, t, stmt.line);
        return;
      }
      case StmtKind::kIndexAssign: {
        const JitType tt = infer_expr_const(*stmt.target);
        if (tt != JitType::kArray && tt != JitType::kUnknown) {
          not_jittable(stmt.line, "item assignment needs a float64 array");
        }
        (void)infer_expr_const(*stmt.index);
        check_numeric(infer_expr_const(*stmt.value), stmt.line);
        return;
      }
      case StmtKind::kIf: {
        for (const auto& c : stmt.conditions) (void)infer_expr_const(*c);
        for (const auto& arm : stmt.arms) infer_block(arm);
        infer_block(stmt.orelse);
        return;
      }
      case StmtKind::kWhile:
        (void)infer_expr_const(*stmt.value);
        infer_block(stmt.body);
        return;
      case StmtKind::kForRange:
        set_var(stmt.name, JitType::kInt, stmt.line);
        if (stmt.start) (void)infer_expr_const(*stmt.start);
        (void)infer_expr_const(*stmt.stop);
        if (stmt.step) (void)infer_expr_const(*stmt.step);
        infer_block(stmt.body);
        return;
      case StmtKind::kReturn: {
        JitType t = JitType::kNone;
        if (stmt.value) t = infer_expr_const(*stmt.value);
        if (return_type_ == JitType::kUnknown) {
          return_type_ = t;
          changed_ = true;
        } else if (return_type_ != t) {
          const JitType joined = join(return_type_, t, stmt.line);
          if (joined != return_type_) {
            return_type_ = joined;
            changed_ = true;
          }
        }
        return;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
      case StmtKind::kPass:
        return;
    }
  }

  const Module* module_;
  std::unordered_map<std::string, JitType> vars_;
  std::set<std::string> param_locked_;
  JitType return_type_ = JitType::kUnknown;
  bool changed_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Pass 2: code generation.
// ---------------------------------------------------------------------------

class JitCompiler {
 public:
  JitCompiler(const Module& module, const FunctionDef& fn,
              const std::vector<JitType>& params)
      : module_(&module), fn_(fn), types_(module, fn, params) {
    out_.name_ = fn.name;
    out_.param_types_ = params;
    out_.return_type_ = types_.return_type();

    // Assign registers to every inferred variable.
    for (const auto& pname : fn.params) {
      (void)var_reg(pname, types_.variables().at(pname));
    }
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      out_.param_regs_.push_back(var_regs_.at(fn.params[i]));
    }
  }

  JitFunction compile() {
    compile_block(fn_.body);
    emit(TOp::kRetNone, fn_.line);
    out_.num_iregs_ = next_ireg_;
    out_.num_fregs_ = next_freg_;
    out_.num_aregs_ = next_areg_;
    return std::move(out_);
  }

 private:
  JitType var_type(const std::string& name, int line) const {
    auto it = types_.variables().find(name);
    if (it == types_.variables().end()) {
      not_jittable(line, "name '" + name + "' is never defined");
    }
    return it->second;
  }

  std::int32_t var_reg(const std::string& name, JitType t) {
    auto it = var_regs_.find(name);
    if (it != var_regs_.end()) return it->second;
    std::int32_t reg = 0;
    switch (t) {
      case JitType::kFloat: reg = next_freg_++; break;
      case JitType::kArray: reg = next_areg_++; break;
      default: reg = next_ireg_++; break;  // bool/int share the int bank
    }
    var_regs_[name] = reg;
    return reg;
  }

  std::int32_t temp_i() { return next_ireg_++; }
  std::int32_t temp_f() { return next_freg_++; }

  std::size_t emit(TOp op, int line, std::int32_t a = 0, std::int32_t b = 0,
                   std::int32_t c = 0) {
    TInstr instr;
    instr.op = op;
    instr.a = a;
    instr.b = b;
    instr.c = c;
    instr.line = line;
    out_.code_.push_back(instr);
    return out_.code_.size() - 1;
  }

  void patch(std::size_t at) {
    out_.code_[at].jump = static_cast<std::int32_t>(out_.code_.size());
  }

  // Result of compiling an expression: a register plus its bank.
  struct Operand {
    JitType type;
    std::int32_t reg;
  };

  Operand to_float(Operand v, int line) {
    if (v.type == JitType::kFloat) return v;
    require<CompileError>(is_numeric(v.type), "internal: bad conversion");
    const std::int32_t f = temp_f();
    emit(TOp::kIntToFloat, line, f, v.reg);
    return {JitType::kFloat, f};
  }

  Operand compile_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const std::int32_t r = temp_i();
        auto at = emit(TOp::kLoadImmI, e.line, r);
        out_.code_[at].imm_i = e.int_value;
        return {JitType::kInt, r};
      }
      case ExprKind::kFloatLit: {
        const std::int32_t r = temp_f();
        auto at = emit(TOp::kLoadImmF, e.line, r);
        out_.code_[at].imm_f = e.float_value;
        return {JitType::kFloat, r};
      }
      case ExprKind::kBoolLit: {
        const std::int32_t r = temp_i();
        auto at = emit(TOp::kLoadImmI, e.line, r);
        out_.code_[at].imm_i = e.bool_value ? 1 : 0;
        return {JitType::kBool, r};
      }
      case ExprKind::kName: {
        const JitType t = var_type(e.str_value, e.line);
        auto it = var_regs_.find(e.str_value);
        if (it == var_regs_.end()) {
          not_jittable(e.line, "name '" + e.str_value +
                                   "' may be used before assignment");
        }
        return {t, it->second};
      }
      case ExprKind::kUnary: {
        Operand v = compile_expr(*e.lhs);
        if (e.unary_op == UnaryOp::kNot) {
          Operand iv = v.type == JitType::kFloat
                           ? float_truthiness(v, e.line)
                           : v;
          const std::int32_t r = temp_i();
          emit(TOp::kNotI, e.line, r, iv.reg);
          return {JitType::kBool, r};
        }
        if (v.type == JitType::kFloat) {
          const std::int32_t r = temp_f();
          emit(TOp::kNegF, e.line, r, v.reg);
          return {JitType::kFloat, r};
        }
        const std::int32_t r = temp_i();
        emit(TOp::kNegI, e.line, r, v.reg);
        return {JitType::kInt, r};
      }
      case ExprKind::kBinary:
        return compile_binary(e);
      case ExprKind::kBoolOp: {
        // Short-circuit with an int result register.
        const std::int32_t r = temp_i();
        Operand lhs = compile_expr(*e.lhs);
        emit(TOp::kMovI, e.line, r, lhs.reg);
        std::size_t skip;
        if (e.is_and) {
          skip = emit(TOp::kJz, e.line, r);
          Operand rhs = compile_expr(*e.rhs);
          emit(TOp::kMovI, e.line, r, rhs.reg);
          patch(skip);
        } else {
          // or: if lhs true skip rhs.
          const std::int32_t notr = temp_i();
          emit(TOp::kNotI, e.line, notr, r);
          skip = emit(TOp::kJz, e.line, notr);
          Operand rhs = compile_expr(*e.rhs);
          emit(TOp::kMovI, e.line, r, rhs.reg);
          patch(skip);
        }
        return {JitType::kBool, r};
      }
      case ExprKind::kCall:
        return compile_call(e);
      case ExprKind::kIndex: {
        Operand arr = compile_expr(*e.lhs);
        if (arr.type != JitType::kArray) {
          not_jittable(e.line, "only arrays are subscriptable here");
        }
        Operand idx = compile_expr(*e.rhs);
        const std::int32_t r = temp_f();
        emit(TOp::kArrLoad, e.line, r, arr.reg, idx.reg);
        return {JitType::kFloat, r};
      }
      default:
        not_jittable(e.line, "expression outside the typed subset");
    }
  }

  Operand float_truthiness(Operand v, int line) {
    const std::int32_t zero = temp_f();
    auto at = emit(TOp::kLoadImmF, line, zero);
    out_.code_[at].imm_f = 0.0;
    const std::int32_t r = temp_i();
    emit(TOp::kCmpNeF, line, r, v.reg, zero);
    return {JitType::kBool, r};
  }

  Operand compile_binary(const Expr& e) {
    Operand lhs = compile_expr(*e.lhs);
    Operand rhs = compile_expr(*e.rhs);
    const bool cmp = e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe ||
                     e.bin_op == BinOp::kLt || e.bin_op == BinOp::kLe ||
                     e.bin_op == BinOp::kGt || e.bin_op == BinOp::kGe;
    const bool float_math = lhs.type == JitType::kFloat ||
                            rhs.type == JitType::kFloat ||
                            e.bin_op == BinOp::kDiv;
    if (float_math) {
      lhs = to_float(lhs, e.line);
      rhs = to_float(rhs, e.line);
      if (cmp) {
        const std::int32_t r = temp_i();
        TOp op;
        switch (e.bin_op) {
          case BinOp::kEq: op = TOp::kCmpEqF; break;
          case BinOp::kNe: op = TOp::kCmpNeF; break;
          case BinOp::kLt: op = TOp::kCmpLtF; break;
          case BinOp::kLe: op = TOp::kCmpLeF; break;
          case BinOp::kGt: op = TOp::kCmpGtF; break;
          default: op = TOp::kCmpGeF; break;
        }
        emit(op, e.line, r, lhs.reg, rhs.reg);
        return {JitType::kBool, r};
      }
      const std::int32_t r = temp_f();
      TOp op;
      switch (e.bin_op) {
        case BinOp::kAdd: op = TOp::kAddF; break;
        case BinOp::kSub: op = TOp::kSubF; break;
        case BinOp::kMul: op = TOp::kMulF; break;
        case BinOp::kDiv: op = TOp::kDivF; break;
        case BinOp::kFloorDiv: op = TOp::kFloorDivF; break;
        case BinOp::kMod: op = TOp::kModF; break;
        case BinOp::kPow: op = TOp::kPowF; break;
        default:
          not_jittable(e.line, "internal: bad float operator");
      }
      emit(op, e.line, r, lhs.reg, rhs.reg);
      return {JitType::kFloat, r};
    }
    if (cmp) {
      const std::int32_t r = temp_i();
      TOp op;
      switch (e.bin_op) {
        case BinOp::kEq: op = TOp::kCmpEqI; break;
        case BinOp::kNe: op = TOp::kCmpNeI; break;
        case BinOp::kLt: op = TOp::kCmpLtI; break;
        case BinOp::kLe: op = TOp::kCmpLeI; break;
        case BinOp::kGt: op = TOp::kCmpGtI; break;
        default: op = TOp::kCmpGeI; break;
      }
      emit(op, e.line, r, lhs.reg, rhs.reg);
      return {JitType::kBool, r};
    }
    const std::int32_t r = temp_i();
    TOp op;
    switch (e.bin_op) {
      case BinOp::kAdd: op = TOp::kAddI; break;
      case BinOp::kSub: op = TOp::kSubI; break;
      case BinOp::kMul: op = TOp::kMulI; break;
      case BinOp::kFloorDiv: op = TOp::kFloorDivI; break;
      case BinOp::kMod: op = TOp::kModI; break;
      case BinOp::kPow: op = TOp::kPowI; break;
      default:
        not_jittable(e.line, "internal: bad int operator");
    }
    emit(op, e.line, r, lhs.reg, rhs.reg);
    return {JitType::kInt, r};
  }

  Operand compile_call(const Expr& e) {
    const std::string& name = e.str_value;
    for (const auto& callee : module_->functions) {
      if (callee.name == name) return compile_module_call(e, callee);
    }
    if (name == "len") {
      Operand arr = compile_expr(*e.args[0]);
      const std::int32_t r = temp_i();
      emit(TOp::kArrLen, e.line, r, arr.reg);
      return {JitType::kInt, r};
    }
    if (name == "sqrt") {
      Operand v = to_float(compile_expr(*e.args[0]), e.line);
      const std::int32_t r = temp_f();
      emit(TOp::kSqrtF, e.line, r, v.reg);
      return {JitType::kFloat, r};
    }
    if (name == "float") {
      return to_float(compile_expr(*e.args[0]), e.line);
    }
    if (name == "int") {
      Operand v = compile_expr(*e.args[0]);
      if (v.type != JitType::kFloat) return {JitType::kInt, v.reg};
      const std::int32_t r = temp_i();
      emit(TOp::kFloatToInt, e.line, r, v.reg);
      return {JitType::kInt, r};
    }
    if (name == "abs") {
      Operand v = compile_expr(*e.args[0]);
      if (v.type == JitType::kFloat) {
        const std::int32_t r = temp_f();
        emit(TOp::kAbsF, e.line, r, v.reg);
        return {JitType::kFloat, r};
      }
      const std::int32_t r = temp_i();
      emit(TOp::kAbsI, e.line, r, v.reg);
      return {JitType::kInt, r};
    }
    if (name == "min" || name == "max") {
      Operand a = to_float(compile_expr(*e.args[0]), e.line);
      Operand b = to_float(compile_expr(*e.args[1]), e.line);
      const std::int32_t r = temp_f();
      emit(name == "min" ? TOp::kMinF : TOp::kMaxF, e.line, r, a.reg, b.reg);
      return {JitType::kFloat, r};
    }
    not_jittable(e.line, "call outside the typed subset: " + name);
  }

  // Compiles a call to another MiniPy function: arguments are evaluated
  // into registers, the callee is compiled for exactly those types (cached
  // per signature within this compilation), and a kCallFn site records the
  // argument registers.
  Operand compile_module_call(const Expr& e, const FunctionDef& callee) {
    CallSite site;
    std::vector<JitType> types;
    for (const auto& arg : e.args) {
      Operand v = compile_expr(*arg);
      site.args.emplace_back(v.type, v.reg);
      types.push_back(v.type);
    }
    std::string key = callee.name;
    for (auto t : types) {
      key += '/';
      key += jit_type_name(t);
    }
    auto it = callee_cache_.find(key);
    if (it == callee_cache_.end()) {
      auto compiled = std::make_shared<JitFunction>(
          jit_compile(*module_, callee.name, types));
      out_.callees_.push_back(compiled);
      it = callee_cache_
               .emplace(key, static_cast<std::int32_t>(out_.callees_.size()) - 1)
               .first;
    }
    const std::int32_t callee_idx = it->second;
    const JitType rt = out_.callees_[static_cast<std::size_t>(callee_idx)]
                           ->return_type();
    std::int32_t dst = -1;
    if (rt == JitType::kFloat) dst = temp_f();
    else if (rt == JitType::kInt || rt == JitType::kBool) dst = temp_i();
    else not_jittable(e.line, "call to '" + callee.name +
                                  "' returns no value in the typed subset");
    const auto site_idx = static_cast<std::int32_t>(out_.callsites_.size());
    out_.callsites_.push_back(std::move(site));
    emit(TOp::kCallFn, e.line, dst, callee_idx, site_idx);
    return {rt, dst};
  }

  // Stores an operand into a typed variable (with int->float widening).
  void store_var(const std::string& name, Operand v, int line) {
    const JitType t = var_type(name, line);
    const std::int32_t reg = var_reg(name, t);
    if (t == JitType::kFloat) {
      v = to_float(v, line);
      emit(TOp::kMovF, line, reg, v.reg);
    } else if (t == JitType::kArray) {
      not_jittable(line, "array variables cannot be reassigned here");
    } else {
      if (v.type == JitType::kFloat) {
        not_jittable(line, "float value assigned to int variable '" + name +
                               "'");
      }
      emit(TOp::kMovI, line, reg, v.reg);
    }
  }

  // Compiles a condition into an int register (0/1 or any int).
  std::int32_t compile_condition(const Expr& e) {
    Operand v = compile_expr(e);
    if (v.type == JitType::kFloat) {
      return float_truthiness(v, e.line).reg;
    }
    return v.reg;
  }

  void compile_block(const Block& block) {
    for (const auto& stmt : block) compile_stmt(*stmt);
  }

  void compile_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kExpr:
        (void)compile_expr(*stmt.value);
        return;
      case StmtKind::kAssign:
        store_var(stmt.name, compile_expr(*stmt.value), stmt.line);
        return;
      case StmtKind::kAugAssign: {
        // Desugar into name = name op value.
        Expr lhs(ExprKind::kName, stmt.line);
        lhs.str_value = stmt.name;
        Operand cur = compile_expr(lhs);
        Operand rhs = compile_expr(*stmt.value);
        const JitType t = var_type(stmt.name, stmt.line);
        if (t == JitType::kFloat || stmt.bin_op == BinOp::kDiv ||
            rhs.type == JitType::kFloat) {
          cur = to_float(cur, stmt.line);
          rhs = to_float(rhs, stmt.line);
          const std::int32_t r = temp_f();
          TOp op;
          switch (stmt.bin_op) {
            case BinOp::kAdd: op = TOp::kAddF; break;
            case BinOp::kSub: op = TOp::kSubF; break;
            case BinOp::kMul: op = TOp::kMulF; break;
            case BinOp::kDiv: op = TOp::kDivF; break;
            default:
              not_jittable(stmt.line, "augmented operator outside subset");
          }
          emit(op, stmt.line, r, cur.reg, rhs.reg);
          store_var(stmt.name, {JitType::kFloat, r}, stmt.line);
        } else {
          const std::int32_t r = temp_i();
          TOp op;
          switch (stmt.bin_op) {
            case BinOp::kAdd: op = TOp::kAddI; break;
            case BinOp::kSub: op = TOp::kSubI; break;
            case BinOp::kMul: op = TOp::kMulI; break;
            default:
              not_jittable(stmt.line, "augmented operator outside subset");
          }
          emit(op, stmt.line, r, cur.reg, rhs.reg);
          store_var(stmt.name, {JitType::kInt, r}, stmt.line);
        }
        return;
      }
      case StmtKind::kIndexAssign: {
        Operand arr = compile_expr(*stmt.target);
        if (arr.type != JitType::kArray) {
          not_jittable(stmt.line, "item assignment needs an array");
        }
        Operand idx = compile_expr(*stmt.index);
        Operand val = compile_expr(*stmt.value);
        if (stmt.augmented) {
          const std::int32_t cur = temp_f();
          emit(TOp::kArrLoad, stmt.line, cur, arr.reg, idx.reg);
          val = to_float(val, stmt.line);
          const std::int32_t r = temp_f();
          TOp op;
          switch (stmt.bin_op) {
            case BinOp::kAdd: op = TOp::kAddF; break;
            case BinOp::kSub: op = TOp::kSubF; break;
            case BinOp::kMul: op = TOp::kMulF; break;
            case BinOp::kDiv: op = TOp::kDivF; break;
            default:
              not_jittable(stmt.line, "augmented operator outside subset");
          }
          emit(op, stmt.line, r, cur, val.reg);
          emit(TOp::kArrStore, stmt.line, arr.reg, idx.reg, r);
        } else {
          val = to_float(val, stmt.line);
          emit(TOp::kArrStore, stmt.line, arr.reg, idx.reg, val.reg);
        }
        return;
      }
      case StmtKind::kIf: {
        std::vector<std::size_t> ends;
        for (std::size_t i = 0; i < stmt.conditions.size(); ++i) {
          const std::int32_t cond = compile_condition(*stmt.conditions[i]);
          const std::size_t skip = emit(TOp::kJz, stmt.line, cond);
          compile_block(stmt.arms[i]);
          ends.push_back(emit(TOp::kJmp, stmt.line));
          patch(skip);
        }
        compile_block(stmt.orelse);
        for (auto j : ends) patch(j);
        return;
      }
      case StmtKind::kWhile: {
        const auto head = static_cast<std::int32_t>(out_.code_.size());
        const std::int32_t cond = compile_condition(*stmt.value);
        const std::size_t exit = emit(TOp::kJz, stmt.line, cond);
        loops_.push_back({head, {}, {}});
        compile_block(stmt.body);
        const std::size_t back = emit(TOp::kJmp, stmt.line);
        out_.code_[back].jump = head;
        patch(exit);
        close_loop(head);
        return;
      }
      case StmtKind::kForRange: {
        const std::int32_t var = var_reg(stmt.name, JitType::kInt);
        const std::int32_t iter = temp_i();
        const std::int32_t stop = temp_i();
        const std::int32_t step = temp_i();
        if (stmt.start) {
          Operand s = compile_expr(*stmt.start);
          require_int(s, stmt.line, "range start");
          emit(TOp::kMovI, stmt.line, iter, s.reg);
        } else {
          auto at = emit(TOp::kLoadImmI, stmt.line, iter);
          out_.code_[at].imm_i = 0;
        }
        {
          Operand s = compile_expr(*stmt.stop);
          require_int(s, stmt.line, "range stop");
          emit(TOp::kMovI, stmt.line, stop, s.reg);
        }
        if (stmt.step) {
          Operand s = compile_expr(*stmt.step);
          require_int(s, stmt.line, "range step");
          emit(TOp::kMovI, stmt.line, step, s.reg);
        } else {
          auto at = emit(TOp::kLoadImmI, stmt.line, step);
          out_.code_[at].imm_i = 1;
        }
        const auto head = static_cast<std::int32_t>(out_.code_.size());
        const std::size_t check =
            emit(TOp::kForCheckI, stmt.line, iter, stop, step);
        emit(TOp::kMovI, stmt.line, var, iter);
        loops_.push_back({head, {}, {}});
        compile_block(stmt.body);
        const std::size_t incr = emit(TOp::kForIncrI, stmt.line, iter, 0, step);
        out_.code_[incr].jump = head;
        patch(check);
        close_loop(static_cast<std::int32_t>(incr));
        return;
      }
      case StmtKind::kReturn: {
        if (stmt.value == nullptr) {
          if (out_.return_type_ != JitType::kNone) {
            not_jittable(stmt.line, "mixed None / value returns");
          }
          emit(TOp::kRetNone, stmt.line);
          return;
        }
        Operand v = compile_expr(*stmt.value);
        if (out_.return_type_ == JitType::kFloat) {
          v = to_float(v, stmt.line);
          emit(TOp::kRetF, stmt.line, v.reg);
        } else if (out_.return_type_ == JitType::kInt ||
                   out_.return_type_ == JitType::kBool) {
          if (v.type == JitType::kFloat) {
            not_jittable(stmt.line, "float returned where int inferred");
          }
          emit(TOp::kRetI, stmt.line, v.reg);
        } else {
          not_jittable(stmt.line, "unsupported return type");
        }
        return;
      }
      case StmtKind::kBreak:
        require<NotJittable>(!loops_.empty(), "'break' outside loop");
        loops_.back().breaks.push_back(emit(TOp::kJmp, stmt.line));
        return;
      case StmtKind::kContinue:
        require<NotJittable>(!loops_.empty(), "'continue' outside loop");
        loops_.back().continues.push_back(emit(TOp::kJmp, stmt.line));
        return;
      case StmtKind::kPass:
        return;
    }
  }

  static void require_int(const Operand& v, int line, const char* what) {
    if (v.type == JitType::kFloat || v.type == JitType::kArray) {
      not_jittable(line, std::string(what) + " must be an integer");
    }
  }

  struct LoopCtx {
    std::int32_t head;
    std::vector<std::size_t> breaks;
    std::vector<std::size_t> continues;
  };

  void close_loop(std::int32_t continue_target) {
    for (auto b : loops_.back().breaks) patch(b);
    for (auto c : loops_.back().continues) {
      out_.code_[c].jump = continue_target;
    }
    loops_.pop_back();
  }

  const Module* module_;
  const FunctionDef& fn_;
  TypeInferencer types_;
  JitFunction out_;
  std::unordered_map<std::string, std::int32_t> callee_cache_;
  std::unordered_map<std::string, std::int32_t> var_regs_;
  std::vector<LoopCtx> loops_;
  int next_ireg_ = 0;
  int next_freg_ = 0;
  int next_areg_ = 0;
};

JitFunction jit_compile(const Module& module, const std::string& name,
                        const std::vector<JitType>& param_types) {
  return JitCompiler(module, module.function(name), param_types).compile();
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

namespace {
[[noreturn]] void run_fault(int line, const std::string& msg) {
  throw RuntimeFault(util::cat("line ", line, ": ", msg));
}

std::int64_t jit_ipow(std::int64_t base, std::int64_t exp, int line) {
  if (exp < 0) run_fault(line, "negative integer exponent in typed code");
  std::int64_t result = 1;
  while (exp > 0) {
    if (exp & 1) result *= base;
    base *= base;
    exp >>= 1;
  }
  return result;
}

std::size_t check_index(std::int64_t i, std::size_t n, int line) {
  if (i < 0) i += static_cast<std::int64_t>(n);
  if (i < 0 || i >= static_cast<std::int64_t>(n)) {
    run_fault(line, util::cat("array index ", i, " out of range for length ",
                              n));
  }
  return static_cast<std::size_t>(i);
}
}  // namespace

double JitFunction::run(std::vector<std::int64_t>& I, std::vector<double>& F,
                        std::vector<std::span<double>>& A,
                        std::int64_t& iret) const {
  std::size_t pc = 0;
  while (pc < code_.size()) {
    const TInstr& in = code_[pc];
    switch (in.op) {
      case TOp::kLoadImmI: I[static_cast<std::size_t>(in.a)] = in.imm_i; ++pc; break;
      case TOp::kLoadImmF: F[static_cast<std::size_t>(in.a)] = in.imm_f; ++pc; break;
      case TOp::kMovI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)]; ++pc; break;
      case TOp::kMovF: F[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)]; ++pc; break;
      case TOp::kIntToFloat:
        F[static_cast<std::size_t>(in.a)] =
            static_cast<double>(I[static_cast<std::size_t>(in.b)]);
        ++pc;
        break;
      case TOp::kFloatToInt:
        I[static_cast<std::size_t>(in.a)] =
            static_cast<std::int64_t>(F[static_cast<std::size_t>(in.b)]);
        ++pc;
        break;
      case TOp::kAddI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] + I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kSubI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] - I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kMulI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] * I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kFloorDivI: {
        const std::int64_t a = I[static_cast<std::size_t>(in.b)];
        const std::int64_t b = I[static_cast<std::size_t>(in.c)];
        if (b == 0) run_fault(in.line, "integer division by zero");
        std::int64_t q = a / b;
        if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
        I[static_cast<std::size_t>(in.a)] = q;
        ++pc;
        break;
      }
      case TOp::kModI: {
        const std::int64_t a = I[static_cast<std::size_t>(in.b)];
        const std::int64_t b = I[static_cast<std::size_t>(in.c)];
        if (b == 0) run_fault(in.line, "integer modulo by zero");
        std::int64_t m = a % b;
        if (m != 0 && ((a < 0) != (b < 0))) m += b;
        I[static_cast<std::size_t>(in.a)] = m;
        ++pc;
        break;
      }
      case TOp::kPowI:
        I[static_cast<std::size_t>(in.a)] =
            jit_ipow(I[static_cast<std::size_t>(in.b)],
                     I[static_cast<std::size_t>(in.c)], in.line);
        ++pc;
        break;
      case TOp::kNegI: I[static_cast<std::size_t>(in.a)] = -I[static_cast<std::size_t>(in.b)]; ++pc; break;
      case TOp::kAddF: F[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] + F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kSubF: F[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] - F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kMulF: F[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] * F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kDivF: {
        const double b = F[static_cast<std::size_t>(in.c)];
        if (b == 0.0) run_fault(in.line, "division by zero");
        F[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] / b;
        ++pc;
        break;
      }
      case TOp::kFloorDivF: {
        const double b = F[static_cast<std::size_t>(in.c)];
        if (b == 0.0) run_fault(in.line, "division by zero");
        F[static_cast<std::size_t>(in.a)] =
            std::floor(F[static_cast<std::size_t>(in.b)] / b);
        ++pc;
        break;
      }
      case TOp::kModF: {
        const double a = F[static_cast<std::size_t>(in.b)];
        const double b = F[static_cast<std::size_t>(in.c)];
        if (b == 0.0) run_fault(in.line, "modulo by zero");
        F[static_cast<std::size_t>(in.a)] = a - std::floor(a / b) * b;
        ++pc;
        break;
      }
      case TOp::kPowF:
        F[static_cast<std::size_t>(in.a)] =
            std::pow(F[static_cast<std::size_t>(in.b)],
                     F[static_cast<std::size_t>(in.c)]);
        ++pc;
        break;
      case TOp::kNegF: F[static_cast<std::size_t>(in.a)] = -F[static_cast<std::size_t>(in.b)]; ++pc; break;
      case TOp::kCmpEqI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] == I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpNeI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] != I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpLtI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] < I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpLeI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] <= I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpGtI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] > I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpGeI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] >= I[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpEqF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] == F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpNeF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] != F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpLtF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] < F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpLeF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] <= F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpGtF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] > F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kCmpGeF: I[static_cast<std::size_t>(in.a)] = F[static_cast<std::size_t>(in.b)] >= F[static_cast<std::size_t>(in.c)]; ++pc; break;
      case TOp::kNotI: I[static_cast<std::size_t>(in.a)] = I[static_cast<std::size_t>(in.b)] == 0; ++pc; break;
      case TOp::kArrLoad: {
        auto arr = A[static_cast<std::size_t>(in.b)];
        F[static_cast<std::size_t>(in.a)] =
            arr[check_index(I[static_cast<std::size_t>(in.c)], arr.size(),
                            in.line)];
        ++pc;
        break;
      }
      case TOp::kArrStore: {
        auto arr = A[static_cast<std::size_t>(in.a)];
        arr[check_index(I[static_cast<std::size_t>(in.b)], arr.size(),
                        in.line)] = F[static_cast<std::size_t>(in.c)];
        ++pc;
        break;
      }
      case TOp::kArrLen:
        I[static_cast<std::size_t>(in.a)] = static_cast<std::int64_t>(
            A[static_cast<std::size_t>(in.b)].size());
        ++pc;
        break;
      case TOp::kSqrtF: F[static_cast<std::size_t>(in.a)] = std::sqrt(F[static_cast<std::size_t>(in.b)]); ++pc; break;
      case TOp::kAbsF: F[static_cast<std::size_t>(in.a)] = std::abs(F[static_cast<std::size_t>(in.b)]); ++pc; break;
      case TOp::kAbsI: I[static_cast<std::size_t>(in.a)] = std::abs(I[static_cast<std::size_t>(in.b)]); ++pc; break;
      case TOp::kMinF: F[static_cast<std::size_t>(in.a)] = std::min(F[static_cast<std::size_t>(in.b)], F[static_cast<std::size_t>(in.c)]); ++pc; break;
      case TOp::kMaxF: F[static_cast<std::size_t>(in.a)] = std::max(F[static_cast<std::size_t>(in.b)], F[static_cast<std::size_t>(in.c)]); ++pc; break;
      case TOp::kCallFn: {
        const JitFunction& callee = *callees_[static_cast<std::size_t>(in.b)];
        const CallSite& site = callsites_[static_cast<std::size_t>(in.c)];
        std::vector<std::int64_t> ci(
            static_cast<std::size_t>(callee.num_iregs_), 0);
        std::vector<double> cf(static_cast<std::size_t>(callee.num_fregs_),
                               0.0);
        std::vector<std::span<double>> ca(
            static_cast<std::size_t>(callee.num_aregs_));
        for (std::size_t k = 0; k < site.args.size(); ++k) {
          const auto preg =
              static_cast<std::size_t>(callee.param_regs_[k]);
          const auto [t, reg] = site.args[k];
          switch (callee.param_types_[k]) {
            case JitType::kFloat:
              cf[preg] = F[static_cast<std::size_t>(reg)];
              break;
            case JitType::kArray:
              ca[preg] = A[static_cast<std::size_t>(reg)];
              break;
            default:
              ci[preg] = I[static_cast<std::size_t>(reg)];
              break;
          }
        }
        std::int64_t cir = 0;
        const double cfr = callee.run(ci, cf, ca, cir);
        if (callee.return_type_ == JitType::kFloat) {
          F[static_cast<std::size_t>(in.a)] = cfr;
        } else {
          I[static_cast<std::size_t>(in.a)] = cir;
        }
        ++pc;
        break;
      }
      case TOp::kJmp: pc = static_cast<std::size_t>(in.jump); break;
      case TOp::kJz:
        pc = I[static_cast<std::size_t>(in.a)] == 0
                 ? static_cast<std::size_t>(in.jump)
                 : pc + 1;
        break;
      case TOp::kForCheckI: {
        const std::int64_t v = I[static_cast<std::size_t>(in.a)];
        const std::int64_t stop = I[static_cast<std::size_t>(in.b)];
        const std::int64_t step = I[static_cast<std::size_t>(in.c)];
        if (step == 0) run_fault(in.line, "range() step must not be zero");
        const bool more = step > 0 ? v < stop : v > stop;
        pc = more ? pc + 1 : static_cast<std::size_t>(in.jump);
        break;
      }
      case TOp::kForIncrI:
        I[static_cast<std::size_t>(in.a)] += I[static_cast<std::size_t>(in.c)];
        pc = static_cast<std::size_t>(in.jump);
        break;
      case TOp::kRetI:
        iret = I[static_cast<std::size_t>(in.a)];
        return 0.0;
      case TOp::kRetF:
        return F[static_cast<std::size_t>(in.a)];
      case TOp::kRetNone:
        return 0.0;
    }
  }
  return 0.0;
}

Value JitFunction::call(std::span<const Value> args) const {
  require<RuntimeFault>(args.size() == param_types_.size(),
                        name_, "(): argument count mismatch");
  std::vector<std::int64_t> I(static_cast<std::size_t>(num_iregs_), 0);
  std::vector<double> F(static_cast<std::size_t>(num_fregs_), 0.0);
  std::vector<std::span<double>> A(static_cast<std::size_t>(num_aregs_));
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto reg = static_cast<std::size_t>(param_regs_[i]);
    switch (param_types_[i]) {
      case JitType::kFloat:
        F[reg] = args[i].to_double();
        break;
      case JitType::kArray:
        require<RuntimeFault>(args[i].is_array(),
                              name_, "(): expected an array argument");
        A[reg] = args[i].as_array()->span();
        break;
      default:
        I[reg] = args[i].to_int();
        break;
    }
  }
  std::int64_t iret = 0;
  const double fret = run(I, F, A, iret);
  switch (return_type_) {
    case JitType::kFloat: return Value::of(fret);
    case JitType::kInt: return Value::of(iret);
    case JitType::kBool: return Value::of(iret != 0);
    default: return Value::none();
  }
}

double JitFunction::call_array_to_float(std::span<double> array) const {
  require<RuntimeFault>(
      param_types_.size() == 1 && param_types_[0] == JitType::kArray &&
          return_type_ == JitType::kFloat,
      name_, "(): signature is not (array) -> float");
  std::vector<std::int64_t> I(static_cast<std::size_t>(num_iregs_), 0);
  std::vector<double> F(static_cast<std::size_t>(num_fregs_), 0.0);
  std::vector<std::span<double>> A(static_cast<std::size_t>(num_aregs_));
  A[static_cast<std::size_t>(param_regs_[0])] = array;
  std::int64_t iret = 0;
  return run(I, F, A, iret);
}

}  // namespace pyhpc::seamless
