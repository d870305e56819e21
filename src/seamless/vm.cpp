// Bytecode virtual machine execution loop.
#include "seamless/bytecode.hpp"
#include "util/string_util.hpp"

namespace pyhpc::seamless {

namespace {
constexpr int kMaxDepth = 400;

[[noreturn]] void fault(int line, const std::string& msg) {
  throw RuntimeFault(util::cat("line ", line, ": ", msg));
}
}  // namespace

VirtualMachine::VirtualMachine(const Module& module) {
  for (const auto& fn : module.functions) {
    index_[fn.name] = static_cast<int>(functions_.size());
    functions_.push_back(CompiledFunction{});  // placeholder for index map
  }
  for (const auto& fn : module.functions) {
    functions_[static_cast<std::size_t>(index_[fn.name])] =
        compile_function(fn, index_);
  }
  install_default_builtins(builtins_);
}

void VirtualMachine::register_builtin(const std::string& name, BuiltinFn fn) {
  builtins_[name] = std::move(fn);
}

const CompiledFunction& VirtualMachine::compiled(
    const std::string& name) const {
  auto it = index_.find(name);
  require<RuntimeFault>(it != index_.end(),
                        "no function '", name, "' in module");
  return functions_[static_cast<std::size_t>(it->second)];
}

Value VirtualMachine::call(const std::string& name,
                           std::vector<Value> args) const {
  const CompiledFunction& fn = compiled(name);
  if (static_cast<int>(args.size()) != fn.num_params) {
    throw RuntimeFault(util::cat(name, "() takes ", fn.num_params,
                                 " arguments (", args.size(), " given)"));
  }
  args.resize(static_cast<std::size_t>(fn.num_locals));
  return run(fn, std::move(args), 0);
}

Value VirtualMachine::run(const CompiledFunction& fn,
                          std::vector<Value> locals, int depth) const {
  if (depth > kMaxDepth) {
    throw RuntimeFault(fn.name + ": maximum recursion depth exceeded");
  }
  // Defined-ness tracking: parameters start defined, other slots do not.
  std::vector<char> defined(static_cast<std::size_t>(fn.num_locals), 0);
  for (int i = 0; i < fn.num_params; ++i) {
    defined[static_cast<std::size_t>(i)] = 1;
  }

  std::vector<Value> stack;
  stack.reserve(16);
  std::size_t pc = 0;
  while (pc < fn.code.size()) {
    const Instr& instr = fn.code[pc];
    switch (instr.op) {
      case OpCode::kLoadConst:
        stack.push_back(fn.consts[static_cast<std::size_t>(instr.a)]);
        ++pc;
        break;
      case OpCode::kLoadLocal: {
        const auto slot = static_cast<std::size_t>(instr.a);
        if (!defined[slot]) {
          fault(instr.line, "name '" + fn.local_names[slot] +
                                "' is not defined");
        }
        stack.push_back(locals[slot]);
        ++pc;
        break;
      }
      case OpCode::kStoreLocal: {
        const auto slot = static_cast<std::size_t>(instr.a);
        locals[slot] = std::move(stack.back());
        stack.pop_back();
        defined[slot] = 1;
        ++pc;
        break;
      }
      case OpCode::kBinary: {
        Value rhs = std::move(stack.back());
        stack.pop_back();
        Value lhs = std::move(stack.back());
        stack.pop_back();
        stack.push_back(
            binary_op(static_cast<BinOp>(instr.a), lhs, rhs, instr.line));
        ++pc;
        break;
      }
      case OpCode::kUnary: {
        Value v = std::move(stack.back());
        stack.pop_back();
        stack.push_back(
            unary_op(static_cast<UnaryOp>(instr.a), v, instr.line));
        ++pc;
        break;
      }
      case OpCode::kJump:
        pc = static_cast<std::size_t>(instr.jump);
        break;
      case OpCode::kPopJumpIfFalse: {
        const bool t = stack.back().truthy();
        stack.pop_back();
        pc = t ? pc + 1 : static_cast<std::size_t>(instr.jump);
        break;
      }
      case OpCode::kJumpIfFalseOrPop: {
        if (!stack.back().truthy()) {
          pc = static_cast<std::size_t>(instr.jump);
        } else {
          stack.pop_back();
          ++pc;
        }
        break;
      }
      case OpCode::kJumpIfTrueOrPop: {
        if (stack.back().truthy()) {
          pc = static_cast<std::size_t>(instr.jump);
        } else {
          stack.pop_back();
          ++pc;
        }
        break;
      }
      case OpCode::kPop:
        stack.pop_back();
        ++pc;
        break;
      case OpCode::kCall: {
        const CompiledFunction& callee =
            functions_[static_cast<std::size_t>(instr.a)];
        const auto nargs = static_cast<std::size_t>(instr.b);
        if (static_cast<int>(nargs) != callee.num_params) {
          fault(instr.line, util::cat(callee.name, "() takes ",
                                      callee.num_params, " arguments (",
                                      nargs, " given)"));
        }
        std::vector<Value> args(static_cast<std::size_t>(callee.num_locals));
        for (std::size_t i = 0; i < nargs; ++i) {
          args[nargs - 1 - i] = std::move(stack.back());
          stack.pop_back();
        }
        stack.push_back(run(callee, std::move(args), depth + 1));
        ++pc;
        break;
      }
      case OpCode::kCallNamed: {
        const std::string& name =
            fn.consts[static_cast<std::size_t>(instr.a)].as_string();
        auto it = builtins_.find(name);
        if (it == builtins_.end()) {
          fault(instr.line, "name '" + name + "' is not defined");
        }
        const auto nargs = static_cast<std::size_t>(instr.b);
        std::vector<Value> args(nargs);
        for (std::size_t i = 0; i < nargs; ++i) {
          args[nargs - 1 - i] = std::move(stack.back());
          stack.pop_back();
        }
        stack.push_back(it->second(args));
        ++pc;
        break;
      }
      case OpCode::kIndexLoad: {
        Value index = std::move(stack.back());
        stack.pop_back();
        Value target = std::move(stack.back());
        stack.pop_back();
        stack.push_back(index_load(target, index, instr.line));
        ++pc;
        break;
      }
      case OpCode::kIndexStore: {
        Value value = std::move(stack.back());
        stack.pop_back();
        Value index = std::move(stack.back());
        stack.pop_back();
        Value target = std::move(stack.back());
        stack.pop_back();
        index_store(target, index, value, instr.line);
        ++pc;
        break;
      }
      case OpCode::kForCheck: {
        const std::int64_t v = locals[static_cast<std::size_t>(instr.a)].to_int();
        const std::int64_t stop =
            locals[static_cast<std::size_t>(instr.b)].to_int();
        const std::int64_t step =
            locals[static_cast<std::size_t>(instr.c)].to_int();
        if (step == 0) fault(instr.line, "range() step must not be zero");
        const bool more = step > 0 ? v < stop : v > stop;
        pc = more ? pc + 1 : static_cast<std::size_t>(instr.jump);
        break;
      }
      case OpCode::kForIncr: {
        auto& v = locals[static_cast<std::size_t>(instr.a)];
        const std::int64_t step =
            locals[static_cast<std::size_t>(instr.c)].to_int();
        v = Value::of(v.to_int() + step);
        pc = static_cast<std::size_t>(instr.jump);
        break;
      }
      case OpCode::kReturnValue:
        return std::move(stack.back());
      case OpCode::kReturnNone:
        return Value::none();
      case OpCode::kBinaryLL: {
        const auto sa = static_cast<std::size_t>(instr.a);
        const auto sb = static_cast<std::size_t>(instr.b);
        if (!defined[sa] || !defined[sb]) {
          fault(instr.line,
                "name '" + fn.local_names[defined[sa] ? sb : sa] +
                    "' is not defined");
        }
        stack.push_back(binary_op(static_cast<BinOp>(instr.c), locals[sa],
                                  locals[sb], instr.line));
        ++pc;
        break;
      }
      case OpCode::kIndexLoadLL: {
        const auto sa = static_cast<std::size_t>(instr.a);
        const auto sb = static_cast<std::size_t>(instr.b);
        if (!defined[sa] || !defined[sb]) {
          fault(instr.line,
                "name '" + fn.local_names[defined[sa] ? sb : sa] +
                    "' is not defined");
        }
        stack.push_back(index_load(locals[sa], locals[sb], instr.line));
        ++pc;
        break;
      }
      case OpCode::kAugLocal: {
        const auto sa = static_cast<std::size_t>(instr.a);
        if (!defined[sa]) {
          fault(instr.line, "name '" + fn.local_names[sa] + "' is not defined");
        }
        Value rhs = std::move(stack.back());
        stack.pop_back();
        locals[sa] =
            binary_op(static_cast<BinOp>(instr.c), locals[sa], rhs, instr.line);
        ++pc;
        break;
      }
      case OpCode::kMovLocal: {
        const auto sa = static_cast<std::size_t>(instr.a);
        const auto sb = static_cast<std::size_t>(instr.b);
        if (!defined[sb]) {
          fault(instr.line, "name '" + fn.local_names[sb] + "' is not defined");
        }
        locals[sa] = locals[sb];
        defined[sa] = 1;
        ++pc;
        break;
      }
    }
  }
  return Value::none();
}

}  // namespace pyhpc::seamless
