// ODIN's built-in ufunc library (§III: "built-in functions that work with
// distributed arrays, and a framework for creating new functions").
//
// Unary ufuncs parallelize trivially (§III.D); binary ufuncs are local for
// conformable operands and redistribute otherwise through
// DistArray::zip's conform strategies.
//
// The registry lets user code add new named ufuncs — the "framework for
// creating new functions" — and lets the driver-mode architecture (Fig 1)
// dispatch them by name in a tens-of-bytes control message.
#pragma once

#include <cmath>
#include <functional>
#include <map>
#include <string>

#include "odin/dist_array.hpp"

namespace pyhpc::odin {

// ---- direct unary ufuncs --------------------------------------------------

template <class T>
DistArray<T> sin(const DistArray<T>& a) {
  return a.map([](T x) { return std::sin(x); });
}
template <class T>
DistArray<T> cos(const DistArray<T>& a) {
  return a.map([](T x) { return std::cos(x); });
}
template <class T>
DistArray<T> sqrt(const DistArray<T>& a) {
  return a.map([](T x) { return std::sqrt(x); });
}
template <class T>
DistArray<T> exp(const DistArray<T>& a) {
  return a.map([](T x) { return std::exp(x); });
}
template <class T>
DistArray<T> log(const DistArray<T>& a) {
  return a.map([](T x) { return std::log(x); });
}
template <class T>
DistArray<T> abs(const DistArray<T>& a) {
  return a.map([](T x) { return std::abs(x); });
}
template <class T>
DistArray<T> square(const DistArray<T>& a) {
  return a.map([](T x) { return x * x; });
}
template <class T>
DistArray<T> negate(const DistArray<T>& a) {
  return a.map([](T x) { return -x; });
}

// ---- direct binary ufuncs --------------------------------------------------

// hypot follows the paper's definition sqrt(x^2 + y^2) rather than
// std::hypot: the naive form is straight-line mul/add/sqrt, so the ufunc
// loop's AVX2 copy vectorizes it (a libm call cannot be), at the cost of
// overflow protection above ~1e154 — callers in that range (e.g. the
// solvers' Givens rotations) use std::hypot directly.
template <class T>
DistArray<T> hypot(const DistArray<T>& a, const DistArray<T>& b,
                   ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(
      b, [](T x, T y) { return std::sqrt(x * x + y * y); }, strategy);
}
template <class T>
DistArray<T> pow(const DistArray<T>& a, const DistArray<T>& b,
                 ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(b, [](T x, T y) { return std::pow(x, y); }, strategy);
}
template <class T>
DistArray<T> minimum(const DistArray<T>& a, const DistArray<T>& b,
                     ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(b, [](T x, T y) { return std::min(x, y); }, strategy);
}
template <class T>
DistArray<T> maximum(const DistArray<T>& a, const DistArray<T>& b,
                     ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(b, [](T x, T y) { return std::max(x, y); }, strategy);
}

/// Elementwise select: out[i] = cond[i] != 0 ? a[i] : b[i] (NumPy's where).
/// All three arrays must share one distribution (redistribute first
/// otherwise); no communication.
template <class T>
DistArray<T> where(const DistArray<T>& cond, const DistArray<T>& a,
                   const DistArray<T>& b) {
  require<ShapeError>(cond.dist().conformable(a.dist()) &&
                          cond.dist().conformable(b.dist()),
                      "where: cond/a/b must be conformable");
  auto out = DistArray<T>::uninitialized(cond.dist());
  const T* cv = cond.local_view().data();
  const T* av = a.local_view().data();
  const T* bv = b.local_view().data();
  T* ov = out.local_view().data();
  util::parallel_for(0, static_cast<std::int64_t>(out.local_view().size()),
                     util::kDefaultGrain,
                     [cv, av, bv, ov](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         ov[i] = cv[i] != T{0} ? av[i] : bv[i];
                       }
                     });
  return out;
}

/// Comparison ufuncs producing 0/1 masks (for where()).
template <class T>
DistArray<T> greater(const DistArray<T>& a, const DistArray<T>& b,
                     ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(b, [](T x, T y) { return x > y ? T{1} : T{0}; }, strategy);
}
template <class T>
DistArray<T> less(const DistArray<T>& a, const DistArray<T>& b,
                  ConformStrategy strategy = ConformStrategy::kAuto) {
  return a.zip(b, [](T x, T y) { return x < y ? T{1} : T{0}; }, strategy);
}

// ---- named registry ---------------------------------------------------------

/// Registry of named ufuncs over double arrays. Names are how the Fig-1
/// driver ships operations to workers, and how user extensions plug in.
class UfuncRegistry {
 public:
  using Unary = std::function<double(double)>;
  using Binary = std::function<double(double, double)>;

  /// The registry of built-ins (sin, cos, sqrt, exp, log, abs, square, neg;
  /// add, sub, mul, div, hypot, pow, min, max).
  static UfuncRegistry& builtin();

  void register_unary(const std::string& name, Unary fn) {
    unary_[name] = std::move(fn);
  }
  void register_binary(const std::string& name, Binary fn) {
    binary_[name] = std::move(fn);
  }

  bool has_unary(const std::string& name) const {
    return unary_.count(name) > 0;
  }
  bool has_binary(const std::string& name) const {
    return binary_.count(name) > 0;
  }

  const Unary& unary(const std::string& name) const {
    auto it = unary_.find(name);
    require(it != unary_.end(), "UfuncRegistry: no unary ufunc '", name, "'");
    return it->second;
  }
  const Binary& binary(const std::string& name) const {
    auto it = binary_.find(name);
    require(it != binary_.end(),
            "UfuncRegistry: no binary ufunc '", name, "'");
    return it->second;
  }

  DistArray<double> apply(const std::string& name,
                          const DistArray<double>& a) const {
    const auto& fn = unary(name);
    return a.map([&fn](double x) { return fn(x); });
  }

  DistArray<double> apply(const std::string& name, const DistArray<double>& a,
                          const DistArray<double>& b,
                          ConformStrategy strategy =
                              ConformStrategy::kAuto) const {
    const auto& fn = binary(name);
    return a.zip(b, [&fn](double x, double y) { return fn(x, y); }, strategy);
  }

 private:
  std::map<std::string, Unary> unary_;
  std::map<std::string, Binary> binary_;
};

}  // namespace pyhpc::odin
