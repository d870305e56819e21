#include "seamless/interpreter.hpp"

#include <cmath>

#include "util/string_util.hpp"

namespace pyhpc::seamless {

namespace {

// Recursion budget, in frames of the tree walk: every call, block,
// statement and subexpression the walk descends into costs one, so the
// budget bounds the C++ stack however the nesting splits between calls
// and the code inside them. A 400-deep recursion through a one-line body
// fits; a deep expression around each recursive call does not.
constexpr int kMaxDepth = 2500;

// Out of line, so the tree walk keeps small frames: no message is built
// until something faults.
template <class... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void fault(int line,
                                                  const Parts&... parts) {
  throw RuntimeFault(util::cat("line ", line, ": ", parts...));
}

void expect_arity(const std::string& name, std::span<const Value> args,
                  std::size_t n) {
  if (args.size() != n) {
    throw RuntimeFault(util::cat(name, "() takes ", n, " arguments (",
                                 args.size(), " given)"));
  }
}

void check_depth(int depth, int line) {
  if (depth > kMaxDepth) [[unlikely]] {
    fault(line, "maximum recursion depth exceeded");
  }
}

// Boxes a literal. Out of line, so its temporaries stay out of the
// recursive eval frame.
[[gnu::noinline]] Value literal(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIntLit: return Value::of(expr.int_value);
    case ExprKind::kFloatLit: return Value::of(expr.float_value);
    case ExprKind::kBoolLit: return Value::of(expr.bool_value);
    case ExprKind::kStringLit: return Value::of(expr.str_value);
    default: return Value::none();  // kNoneLit
  }
}

void install_default_builtins(std::map<std::string, BuiltinFn>& builtins) {
  builtins["len"] = [](std::span<const Value> args) {
    expect_arity("len", args, 1);
    return Value::of(value_length(args[0], 0));
  };
  builtins["abs"] = [](std::span<const Value> args) {
    expect_arity("abs", args, 1);
    if (args[0].is_int() || args[0].is_bool()) {
      return Value::of(std::abs(args[0].to_int()));
    }
    return Value::of(std::abs(args[0].to_double()));
  };
  builtins["float"] = [](std::span<const Value> args) {
    expect_arity("float", args, 1);
    return Value::of(args[0].to_double());
  };
  builtins["int"] = [](std::span<const Value> args) {
    expect_arity("int", args, 1);
    return Value::of(args[0].to_int());
  };
  builtins["bool"] = [](std::span<const Value> args) {
    expect_arity("bool", args, 1);
    return Value::of(args[0].truthy());
  };
  builtins["sqrt"] = [](std::span<const Value> args) {
    expect_arity("sqrt", args, 1);
    return Value::of(std::sqrt(args[0].to_double()));
  };
  builtins["min"] = [](std::span<const Value> args) {
    expect_arity("min", args, 2);
    return Value::of(std::min(args[0].to_double(), args[1].to_double()));
  };
  builtins["max"] = [](std::span<const Value> args) {
    expect_arity("max", args, 2);
    return Value::of(std::max(args[0].to_double(), args[1].to_double()));
  };
  // list(n) -> list of n Nones; zeros(n) -> float64 array of n zeros.
  builtins["list"] = [](std::span<const Value> args) {
    expect_arity("list", args, 1);
    auto l = std::make_shared<ListValue>();
    l->items.assign(static_cast<std::size_t>(args[0].to_int()), Value::none());
    return Value::of(std::move(l));
  };
  builtins["zeros"] = [](std::span<const Value> args) {
    expect_arity("zeros", args, 1);
    return Value::of(ArrayValue::owned(
        std::vector<double>(static_cast<std::size_t>(args[0].to_int()), 0.0)));
  };
}

}  // namespace

Interpreter::Interpreter(const Module& module) : module_(&module) {
  for (const auto& fn : module.functions) {
    functions_[fn.name] = &fn;
  }
  install_default_builtins(builtins_);
}

void Interpreter::register_builtin(const std::string& name, BuiltinFn fn) {
  builtins_[name] = std::move(fn);
}

bool Interpreter::has_function(const std::string& name) const {
  return functions_.count(name) > 0;
}

Value Interpreter::call(const std::string& name,
                        std::vector<Value> args) const {
  auto it = functions_.find(name);
  require<RuntimeFault>(it != functions_.end(),
                        "no function '", name, "' in module");
  return call_function(*it->second, std::move(args), 0);
}

Value Interpreter::call_function(const FunctionDef& fn,
                                 std::vector<Value> args, int depth) const {
  if (args.size() != fn.params.size()) {
    fault(fn.line, fn.name, "() takes ", fn.params.size(), " arguments (",
          args.size(), " given)");
  }
  Env env;
  env.reserve(fn.params.size() * 2);
  for (std::size_t i = 0; i < args.size(); ++i) {
    env[fn.params[i]] = std::move(args[i]);
  }
  Value ret;
  exec_block(fn.body, env, ret, depth + 1);
  return ret;
}

Interpreter::Flow Interpreter::exec_block(const Block& block, Env& env,
                                          Value& ret, int depth) const {
  for (const auto& stmt : block) {
    const Flow flow = exec_stmt(*stmt, env, ret, depth + 1);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_stmt(const Stmt& stmt, Env& env,
                                         Value& ret, int depth) const {
  check_depth(depth, stmt.line);
  switch (stmt.kind) {
    case StmtKind::kExpr:
      (void)eval(*stmt.value, env, depth + 1);
      return Flow::kNormal;
    case StmtKind::kAssign:
      env[stmt.name] = eval(*stmt.value, env, depth + 1);
      return Flow::kNormal;
    case StmtKind::kAugAssign: {
      auto it = env.find(stmt.name);
      if (it == env.end()) {
        fault(stmt.line, "name '", stmt.name, "' is not defined");
      }
      it->second = binary_op(stmt.bin_op, it->second,
                             eval(*stmt.value, env, depth + 1), stmt.line);
      return Flow::kNormal;
    }
    case StmtKind::kIndexAssign: {
      const Value target = eval(*stmt.target, env, depth + 1);
      const Value index = eval(*stmt.index, env, depth + 1);
      Value value = eval(*stmt.value, env, depth + 1);
      if (stmt.augmented) {
        value = binary_op(stmt.bin_op, index_load(target, index, stmt.line),
                          value, stmt.line);
      }
      index_store(target, index, value, stmt.line);
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      for (std::size_t i = 0; i < stmt.conditions.size(); ++i) {
        if (eval(*stmt.conditions[i], env, depth + 1).truthy()) {
          return exec_block(stmt.arms[i], env, ret, depth + 1);
        }
      }
      if (!stmt.orelse.empty()) {
        return exec_block(stmt.orelse, env, ret, depth + 1);
      }
      return Flow::kNormal;
    }
    case StmtKind::kWhile: {
      while (eval(*stmt.value, env, depth + 1).truthy()) {
        const Flow flow = exec_block(stmt.body, env, ret, depth + 1);
        if (flow == Flow::kReturn) return flow;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    }
    case StmtKind::kForRange: {
      const std::int64_t start =
          stmt.start ? eval(*stmt.start, env, depth + 1).to_int() : 0;
      const std::int64_t stop = eval(*stmt.stop, env, depth + 1).to_int();
      const std::int64_t step =
          stmt.step ? eval(*stmt.step, env, depth + 1).to_int() : 1;
      if (step == 0) fault(stmt.line, "range() step must not be zero");
      for (std::int64_t i = start; step > 0 ? i < stop : i > stop; i += step) {
        env[stmt.name] = Value::of(i);
        const Flow flow = exec_block(stmt.body, env, ret, depth + 1);
        if (flow == Flow::kReturn) return flow;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    }
    case StmtKind::kReturn:
      ret = stmt.value ? eval(*stmt.value, env, depth + 1) : Value::none();
      return Flow::kReturn;
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kPass:
      return Flow::kNormal;
  }
  fault(stmt.line, "internal: unhandled statement kind");
}

Value Interpreter::eval(const Expr& expr, Env& env, int depth) const {
  check_depth(depth, expr.line);
  switch (expr.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kBoolLit:
    case ExprKind::kNoneLit:
    case ExprKind::kStringLit:
      return literal(expr);
    case ExprKind::kName: {
      auto it = env.find(expr.str_value);
      if (it == env.end()) {
        fault(expr.line, "name '", expr.str_value, "' is not defined");
      }
      return it->second;
    }
    case ExprKind::kUnary:
      return unary_op(expr.unary_op, eval(*expr.lhs, env, depth + 1),
                      expr.line);
    case ExprKind::kBinary:
      return binary_op(expr.bin_op, eval(*expr.lhs, env, depth + 1),
                       eval(*expr.rhs, env, depth + 1), expr.line);
    case ExprKind::kBoolOp: {
      const Value lhs = eval(*expr.lhs, env, depth + 1);
      if (expr.is_and) {
        if (!lhs.truthy()) return lhs;
        return eval(*expr.rhs, env, depth + 1);
      }
      if (lhs.truthy()) return lhs;
      return eval(*expr.rhs, env, depth + 1);
    }
    case ExprKind::kCall:
      return eval_call(expr, env, depth + 1);
    case ExprKind::kIndex:
      return index_load(eval(*expr.lhs, env, depth + 1),
                        eval(*expr.rhs, env, depth + 1), expr.line);
  }
  fault(expr.line, "internal: unhandled expression kind");
}

Value Interpreter::eval_call(const Expr& expr, Env& env, int depth) const {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const auto& arg : expr.args) {
    args.push_back(eval(*arg, env, depth + 1));
  }
  auto fit = functions_.find(expr.str_value);
  if (fit != functions_.end()) {
    return call_function(*fit->second, std::move(args), depth + 1);
  }
  auto bit = builtins_.find(expr.str_value);
  if (bit != builtins_.end()) {
    return bit->second(args);
  }
  fault(expr.line, "name '", expr.str_value, "' is not defined");
}

}  // namespace pyhpc::seamless
