// Tree-walking interpreter for MiniPy — the CPython stand-in (DESIGN.md §2):
// boxed values, per-node dynamic dispatch, name lookup through hash maps.
// This is the baseline tier every Seamless speedup claim is measured
// against.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "seamless/ast.hpp"
#include "seamless/value.hpp"

namespace pyhpc::seamless {

/// Native function callable from MiniPy (builtins and FFI bindings).
using BuiltinFn = std::function<Value(std::span<const Value>)>;

class Interpreter {
 public:
  /// Binds the module's functions; installs the default builtins
  /// (len, abs, float, int, bool, min, max, sqrt, list, zeros).
  explicit Interpreter(const Module& module);

  /// Adds/overrides a native builtin (the FFI injection point).
  void register_builtin(const std::string& name, BuiltinFn fn);

  bool has_function(const std::string& name) const;

  /// Calls a module function by name.
  Value call(const std::string& name, std::vector<Value> args) const;

 private:
  enum class Flow { kNormal, kReturn, kBreak, kContinue };
  using Env = std::unordered_map<std::string, Value>;

  Value call_function(const FunctionDef& fn, std::vector<Value> args,
                      int depth) const;
  Flow exec_block(const Block& block, Env& env, Value& ret, int depth) const;
  Flow exec_stmt(const Stmt& stmt, Env& env, Value& ret, int depth) const;
  Value eval(const Expr& expr, Env& env, int depth) const;
  Value eval_call(const Expr& expr, Env& env, int depth) const;

  const Module* module_;
  std::map<std::string, const FunctionDef*> functions_;
  std::map<std::string, BuiltinFn> builtins_;
};

}  // namespace pyhpc::seamless
