// Engine: the Seamless facade tying the tiers together, plus the embed API.
//
// The tiers (DESIGN.md §2):
//   interpreted — boxed tree walking (the CPython stand-in);
//   jit         — typed register code, unboxed (the LLVM stand-in).
//
// `run_jit` performs the @jit decorator's job: on first call it discovers
// parameter types from the arguments, compiles, and caches per signature;
// subsequent calls dispatch straight to compiled code.
//
// The embed API (seamless::numpy, §IV.D) is the inverse direction: MiniPy-
// defined algorithms callable from C++ "as if defined in that language
// originally" — `seamless::numpy::sum(arr)` works on `int arr[100]` and
// `std::vector<double>` exactly as in the paper's listing.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "seamless/ffi.hpp"
#include "seamless/interpreter.hpp"
#include "seamless/jit.hpp"

namespace pyhpc::seamless {

class Engine {
 public:
  /// Parses the source and prepares all tiers.
  explicit Engine(const std::string& source);

  const Module& module() const { return module_; }
  Interpreter& interpreter() { return interp_; }

  /// Makes a CModule's functions callable from interpreted MiniPy.
  void bind(const CModule& module);

  Value run_interpreted(const std::string& name, std::vector<Value> args) const {
    return interp_.call(name, std::move(args));
  }

  /// @jit behaviour: type-discover from the arguments, compile once per
  /// signature, then run unboxed. Throws NotJittable for dynamic code.
  Value run_jit(const std::string& name, std::vector<Value> args);

  /// Decorator-driven dispatch, the paper's surface semantics: a function
  /// written with @jit runs through the JIT (falling back to the
  /// interpreter when the call leaves the typed subset — the "staged and
  /// incremental approach" of §IV.A); undecorated functions run
  /// interpreted, as in CPython.
  Value run(const std::string& name, std::vector<Value> args);

  /// Explicit-hint compilation (jit.compile(types=...)); cached.
  const JitFunction& jit(const std::string& name,
                         const std::vector<JitType>& param_types);

  /// Number of distinct (function, signature) pairs compiled so far.
  std::size_t jit_cache_size() const { return jit_cache_.size(); }

 private:
  Module module_;
  Interpreter interp_;
  std::map<std::string, std::unique_ptr<JitFunction>> jit_cache_;
};

/// MiniPy algorithms exposed to C++ (§IV.D). Inputs may be any contiguous
/// numeric range: C arrays, std::vector, std::span; integers are converted
/// at the boundary, double data is used in place.
namespace numpy {

/// Sum of all elements (the paper's example).
double sum(std::span<const double> values);
double sum(std::span<const int> values);

/// Minimum / maximum / mean of all elements.
double min(std::span<const double> values);
double max(std::span<const double> values);
double mean(std::span<const double> values);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

// Range/array adapters so the paper's exact call shapes compile:
//   int arr[100]; seamless::numpy::sum(arr);
//   std::vector<double> darr(100); seamless::numpy::sum(darr);
template <class T, std::size_t N>
double sum(const T (&arr)[N]) {
  return sum(std::span<const T>(arr, N));
}
inline double sum(const std::vector<double>& v) {
  return sum(std::span<const double>(v));
}
inline double sum(const std::vector<int>& v) {
  return sum(std::span<const int>(v));
}
inline double min(const std::vector<double>& v) {
  return min(std::span<const double>(v));
}
inline double max(const std::vector<double>& v) {
  return max(std::span<const double>(v));
}
inline double mean(const std::vector<double>& v) {
  return mean(std::span<const double>(v));
}

/// The MiniPy source behind the embed functions (exposed for tests and to
/// make the point that this *is* Python-style code compiled for C++ use).
const std::string& source();

}  // namespace numpy

}  // namespace pyhpc::seamless
