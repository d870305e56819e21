// Seamless FFI (§IV.C): "trivially import external functions into Python".
//
// The paper's CModule reads a C header and exposes everything in a library:
//
//   class cmath(CModule):
//       Header = "math.h"
//   libm = cmath('m')
//   libm.atan2(1.0, 2.0)
//
// Offline we cannot ship a C parser, so the substitution (DESIGN.md §2)
// keeps the user-facing property — no per-call interface spec — two ways:
//  - def(name, fn): the signature is auto-discovered from the function
//    pointer's own type via template deduction;
//  - load_library("m") + def_external<double(double, double)>("atan2"):
//    ctypes-style dlopen/dlsym against the real system libm, with the
//    signature stated once at binding time.
// Either way the bound function is callable dynamically by name with boxed
// values, and install_into() injects the whole module into an interpreter
// namespace.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "seamless/interpreter.hpp"
#include "seamless/value.hpp"

namespace pyhpc::seamless {

namespace ffi_detail {

template <class T>
T from_value(const Value& v);
template <>
inline double from_value<double>(const Value& v) { return v.to_double(); }
template <>
inline float from_value<float>(const Value& v) {
  return static_cast<float>(v.to_double());
}
template <>
inline std::int64_t from_value<std::int64_t>(const Value& v) {
  return v.to_int();
}
template <>
inline int from_value<int>(const Value& v) {
  return static_cast<int>(v.to_int());
}
template <>
inline bool from_value<bool>(const Value& v) { return v.truthy(); }

inline Value to_value(double v) { return Value::of(v); }
inline Value to_value(float v) { return Value::of(static_cast<double>(v)); }
inline Value to_value(std::int64_t v) { return Value::of(v); }
inline Value to_value(int v) { return Value::of(v); }
inline Value to_value(bool v) { return Value::of(v); }

}  // namespace ffi_detail

/// A named collection of foreign functions callable with boxed values.
class CModule {
 public:
  CModule() = default;
  explicit CModule(std::string name) : name_(std::move(name)) {}
  ~CModule();

  CModule(CModule&&) noexcept;
  CModule& operator=(CModule&&) noexcept;
  CModule(const CModule&) = delete;
  CModule& operator=(const CModule&) = delete;

  const std::string& name() const { return name_; }

  /// Binds a statically-known C function; argument and return types are
  /// discovered from the pointer type — no interface spec at the call site.
  template <class R, class... A>
  void def(const std::string& fn_name, R (*fn)(A...)) {
    bindings_[fn_name] = Binding{
        sizeof...(A),
        [fn](std::span<const Value> args) -> Value {
          return call_impl(fn, args, std::index_sequence_for<A...>{});
        }};
  }

  /// ctypes-style dynamic loading: dlopen the system library with the
  /// given short name ("m" -> libm). Throws on failure.
  static CModule load_library(const std::string& short_name);

  /// Binds `symbol` from the loaded library with signature Sig
  /// (e.g. def_external<double(double, double)>("atan2")).
  template <class Sig>
  void def_external(const std::string& symbol);

  bool has(const std::string& fn_name) const {
    return bindings_.count(fn_name) > 0;
  }

  std::vector<std::string> function_names() const;

  std::size_t arity(const std::string& fn_name) const;

  /// Dynamic call by name with boxed arguments.
  Value call(const std::string& fn_name, std::span<const Value> args) const;

  /// Injects every bound function into an interpreter namespace
  /// ("all of the math library is available to use").
  void install_into(Interpreter& interp) const;

  /// The paper's running example: the C math library with its common
  /// functions pre-bound through dlopen/dlsym.
  static CModule math();

 private:
  struct Binding {
    std::size_t arity;
    std::function<Value(std::span<const Value>)> fn;
  };

  template <class R, class... A, std::size_t... I>
  static Value call_impl(R (*fn)(A...), std::span<const Value> args,
                         std::index_sequence<I...>) {
    require<RuntimeFault>(args.size() == sizeof...(A),
                          "foreign call: argument count mismatch");
    return ffi_detail::to_value(fn(ffi_detail::from_value<A>(args[I])...));
  }

  void* resolve_symbol(const std::string& symbol) const;

  std::string name_;
  void* handle_ = nullptr;  // dlopen handle (owned)
  std::map<std::string, Binding> bindings_;
};

template <class Sig>
struct SignatureBinder;

template <class R, class... A>
struct SignatureBinder<R(A...)> {
  static void bind(CModule& module, const std::string& symbol, void* addr) {
    using Fn = R (*)(A...);
    module.def(symbol, reinterpret_cast<Fn>(addr));
  }
};

template <class Sig>
void CModule::def_external(const std::string& symbol) {
  SignatureBinder<Sig>::bind(*this, symbol, resolve_symbol(symbol));
}

}  // namespace pyhpc::seamless
