// The Seamless "JIT" tier: type discovery plus compilation to a typed
// register IR executed without any boxing — the offline stand-in for the
// paper's LLVM backend (DESIGN.md §2). The pipeline matches §IV.A/IV.B:
//
//   "The above will work and use type discovery to type res as a floating
//    point variable and to type i as an integer type."
//
// 1. Parameter types come from the call site (or explicit hints, as with
//    jit.compile) — MiniPy ints/floats/bools/float64 arrays.
// 2. A fixpoint pass propagates types through assignments, operators, and
//    the typed intrinsic builtins; any dynamic feature (lists, strings,
//    polymorphic variables, unknown calls) raises NotJittable and callers
//    fall back to the interpreter.
// 3. Code generation emits register-register typed instructions (separate
//    int64/double banks, unboxed array loads/stores) run by a flat
//    dispatch loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "seamless/ast.hpp"
#include "seamless/value.hpp"

namespace pyhpc::seamless {

/// Raised when a function uses features outside the typed subset.
class NotJittable : public CompileError {
 public:
  explicit NotJittable(const std::string& what) : CompileError(what) {}
};

enum class JitType : std::uint8_t {
  kUnknown,
  kNone,
  kBool,
  kInt,
  kFloat,
  kArray,  // float64 buffer
};

std::string jit_type_name(JitType t);

/// Infers a parameter type from a boxed value (the "type discovery from
/// the first call" path).
JitType jit_type_of(const Value& v);

// Typed register instructions.
enum class TOp : std::uint8_t {
  kLoadImmI, kLoadImmF,
  kMovI, kMovF, kIntToFloat, kFloatToInt,
  kAddI, kSubI, kMulI, kFloorDivI, kModI, kPowI, kNegI,
  kAddF, kSubF, kMulF, kDivF, kFloorDivF, kModF, kPowF, kNegF,
  kCmpEqI, kCmpNeI, kCmpLtI, kCmpLeI, kCmpGtI, kCmpGeI,
  kCmpEqF, kCmpNeF, kCmpLtF, kCmpLeF, kCmpGtF, kCmpGeF,
  kNotI,
  kArrLoad,   // F[a] = A[b][ I[c] ]  (negative wrap + bounds check)
  kArrStore,  // A[a][ I[b] ] = F[c]
  kArrLen,    // I[a] = len(A[b])
  kSqrtF, kAbsF, kAbsI, kMinF, kMaxF,
  kCallFn,         // call callees[b] with callsites[c] args; result -> reg a
  kJmp,            // -> jump
  kJz,             // if I[a] == 0 -> jump
  kForCheckI,      // if exhausted(I[a], I[b], I[c]) -> jump
  kForIncrI,       // I[a] += I[c]; -> jump
  kRetI, kRetF, kRetNone,
};

struct TInstr {
  TOp op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t jump = -1;
  std::int64_t imm_i = 0;
  double imm_f = 0.0;
  std::int32_t line = 0;
};

/// Argument registers for one kCallFn site (types select the bank).
struct CallSite {
  std::vector<std::pair<JitType, std::int32_t>> args;
};

/// A function compiled for one concrete signature.
class JitFunction {
 public:
  const std::vector<JitType>& param_types() const { return param_types_; }
  JitType return_type() const { return return_type_; }
  std::size_t code_size() const { return code_.size(); }

  // Read-only IR access for the static-compilation backend (transpile.hpp).
  const std::string& name() const { return name_; }
  const std::vector<TInstr>& code() const { return code_; }
  const std::vector<std::int32_t>& param_regs() const { return param_regs_; }
  int num_iregs() const { return num_iregs_; }
  int num_fregs() const { return num_fregs_; }
  int num_aregs() const { return num_aregs_; }
  const std::vector<std::shared_ptr<JitFunction>>& callees() const {
    return callees_;
  }
  const std::vector<CallSite>& callsites() const { return callsites_; }

  /// Boxed entry point: converts arguments at the boundary, runs unboxed.
  Value call(std::span<const Value> args) const;

  /// Fast path for the common (array) -> float signature (no boxing at
  /// all) — what the embed API uses.
  double call_array_to_float(std::span<double> array) const;

 private:
  friend class JitCompiler;

  double run(std::vector<std::int64_t>& iregs, std::vector<double>& fregs,
             std::vector<std::span<double>>& aregs,
             std::int64_t& iret) const;  // returns fret

  std::string name_;
  std::vector<JitType> param_types_;
  JitType return_type_ = JitType::kNone;
  int num_iregs_ = 0;
  int num_fregs_ = 0;
  int num_aregs_ = 0;
  // Parameter -> register mapping (bank chosen by type).
  std::vector<std::int32_t> param_regs_;
  std::vector<TInstr> code_;
  // Module-function calls: compiled callees (per call-site signature) and
  // the argument registers of each call site.
  std::vector<std::shared_ptr<JitFunction>> callees_;
  std::vector<CallSite> callsites_;
};

/// Compiles `module.function(name)` for the given parameter types. Throws
/// NotJittable when the function leaves the typed subset, CompileError on
/// arity mismatch.
JitFunction jit_compile(const Module& module, const std::string& name,
                        const std::vector<JitType>& param_types);

}  // namespace pyhpc::seamless
