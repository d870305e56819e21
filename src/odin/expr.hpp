// Lazy distributed array expressions with loop fusion (§III: "With the
// power and expressiveness of NumPy array slicing, ODIN can optimize
// distributed array expressions. These optimizations include: loop
// fusion, ...").
//
// Eager NumPy semantics allocate one temporary per operation; the lazy
// layer builds an expression tree of references and evaluates the whole
// tree in a single pass per local element at eval() time — zero
// temporaries, one loop. Bench E10 is the ablation (eager vs fused).
//
// Operands must be conformable; eval() verifies and throws ShapeError
// otherwise (conforming inside a fused loop would hide communication —
// redistribute explicitly first).
#pragma once

#include <type_traits>

#include "odin/dist_array.hpp"

namespace pyhpc::odin {

namespace detail {

/// Leaf referencing an existing array (no copy).
template <class T>
struct LeafExpr {
  const DistArray<T>* array;

  using value_type = T;
  T at(index_t i) const {
    return array->local_view()[static_cast<std::size_t>(i)];
  }
  const Distribution* dist() const { return &array->dist(); }
  bool conformable_with(const Distribution& d) const {
    return array->dist().conformable(d);
  }
};

/// Broadcast scalar.
template <class T>
struct ScalarExpr {
  T value;

  using value_type = T;
  T at(index_t) const { return value; }
  const Distribution* dist() const { return nullptr; }
  bool conformable_with(const Distribution&) const { return true; }
};

template <class F, class A>
struct UnaryExpr {
  F fn;
  A a;

  using value_type = typename A::value_type;
  value_type at(index_t i) const { return fn(a.at(i)); }
  const Distribution* dist() const { return a.dist(); }
  bool conformable_with(const Distribution& d) const {
    return a.conformable_with(d);
  }
};

template <class F, class A, class B>
struct BinaryExpr {
  F fn;
  A a;
  B b;

  // common_type, not A's type alone: `constant(2) * lazy(x)` with double x
  // must evaluate as double, regardless of which operand holds the scalar.
  using value_type =
      std::common_type_t<typename A::value_type, typename B::value_type>;
  value_type at(index_t i) const { return fn(a.at(i), b.at(i)); }
  const Distribution* dist() const {
    const Distribution* d = a.dist();
    return d != nullptr ? d : b.dist();
  }
  bool conformable_with(const Distribution& d) const {
    return a.conformable_with(d) && b.conformable_with(d);
  }
};

template <class E>
inline constexpr bool is_expr_v = false;
template <class T>
inline constexpr bool is_expr_v<LeafExpr<T>> = true;
template <class T>
inline constexpr bool is_expr_v<ScalarExpr<T>> = true;
template <class F, class A>
inline constexpr bool is_expr_v<UnaryExpr<F, A>> = true;
template <class F, class A, class B>
inline constexpr bool is_expr_v<BinaryExpr<F, A, B>> = true;

}  // namespace detail

/// Wraps an array for lazy composition: odin::lazy(x) * 2.0 + odin::lazy(y).
template <class T>
detail::LeafExpr<T> lazy(const DistArray<T>& a) {
  return detail::LeafExpr<T>{&a};
}

template <class T>
detail::ScalarExpr<T> constant(T v) {
  return detail::ScalarExpr<T>{v};
}

// ---- combinators -----------------------------------------------------------

template <class F, class A,
          class = std::enable_if_t<detail::is_expr_v<A>>>
auto apply_unary(F fn, A a) {
  return detail::UnaryExpr<F, A>{fn, a};
}

template <class F, class A, class B,
          class = std::enable_if_t<detail::is_expr_v<A> && detail::is_expr_v<B>>>
auto apply_binary(F fn, A a, B b) {
  return detail::BinaryExpr<F, A, B>{fn, a, b};
}

namespace detail {

template <class A, class B,
          class = std::enable_if_t<is_expr_v<A> && is_expr_v<B>>>
auto operator+(A a, B b) {
  using T = std::common_type_t<typename A::value_type, typename B::value_type>;
  return pyhpc::odin::apply_binary(std::plus<T>{}, a, b);
}
template <class A, class B,
          class = std::enable_if_t<is_expr_v<A> && is_expr_v<B>>>
auto operator-(A a, B b) {
  using T = std::common_type_t<typename A::value_type, typename B::value_type>;
  return pyhpc::odin::apply_binary(std::minus<T>{}, a, b);
}
template <class A, class B,
          class = std::enable_if_t<is_expr_v<A> && is_expr_v<B>>>
auto operator*(A a, B b) {
  using T = std::common_type_t<typename A::value_type, typename B::value_type>;
  return pyhpc::odin::apply_binary(std::multiplies<T>{}, a, b);
}
template <class A, class B,
          class = std::enable_if_t<is_expr_v<A> && is_expr_v<B>>>
auto operator/(A a, B b) {
  using T = std::common_type_t<typename A::value_type, typename B::value_type>;
  return pyhpc::odin::apply_binary(std::divides<T>{}, a, b);
}

// Scalar/expr mixed operators — the full set, in both orders. The scalar
// parameter is `typename A::value_type` (a non-deduced context), so plain
// literals convert: `2.0 + lazy(x)` and `lazy(x) / 2` both work. The
// non-commutative ops keep the operand order in the functor.
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator*(A a, typename A::value_type s) {
  return pyhpc::odin::apply_binary(std::multiplies<typename A::value_type>{}, a,
                      pyhpc::odin::constant(s));
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator*(typename A::value_type s, A a) {
  return a * s;
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator+(A a, typename A::value_type s) {
  return pyhpc::odin::apply_binary(std::plus<typename A::value_type>{}, a, pyhpc::odin::constant(s));
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator+(typename A::value_type s, A a) {
  return a + s;
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator-(A a, typename A::value_type s) {
  return pyhpc::odin::apply_binary(std::minus<typename A::value_type>{}, a,
                      pyhpc::odin::constant(s));
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator-(typename A::value_type s, A a) {
  return pyhpc::odin::apply_binary(std::minus<typename A::value_type>{},
                      pyhpc::odin::constant(s), a);
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator/(A a, typename A::value_type s) {
  return pyhpc::odin::apply_binary(std::divides<typename A::value_type>{}, a,
                      pyhpc::odin::constant(s));
}
template <class A, class = std::enable_if_t<is_expr_v<A>>>
auto operator/(typename A::value_type s, A a) {
  return pyhpc::odin::apply_binary(std::divides<typename A::value_type>{},
                      pyhpc::odin::constant(s), a);
}

}  // namespace detail

/// Evaluates the whole tree in one fused pass over the local elements —
/// threaded on the task pool when the local part exceeds one grain. Each
/// chunk is one loop of `dst[i] = expr.at(i)` (pure inlined leaf-load
/// arithmetic). Collective only in that every rank must call it (no
/// traffic).
template <class E, class = std::enable_if_t<detail::is_expr_v<E>>>
DistArray<typename E::value_type> eval(const E& expr) {
  using T = typename E::value_type;
  const Distribution* dist = expr.dist();
  require<ShapeError>(dist != nullptr,
                      "eval: expression references no array (all scalars)");
  require<ShapeError>(expr.conformable_with(*dist),
                      "eval: operands are not conformable; redistribute "
                      "before fusing");
  auto out = DistArray<T>::uninitialized(*dist);
  T* dst = out.local_view().data();
  util::parallel_for(0, static_cast<std::int64_t>(out.local_view().size()),
                     util::kDefaultGrain,
                     [&expr, dst](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         dst[i] = expr.at(static_cast<index_t>(i));
                       }
                     });
  return out;
}

// ---- fused reductions ------------------------------------------------------
//
// Reduce an expression tree without materializing it: one fused pass per
// chunk, deterministic grain-based chunking (bit-identical across thread
// counts, see util::TaskPool), then one allreduce. Same empty-array
// semantics as the DistArray reductions: min/max/mean on a globally empty
// expression throw NumericalError.

namespace detail {

/// The expression's anchoring distribution, validated exactly like eval().
template <class E>
const Distribution& reduce_dist(const E& expr, const char* what) {
  const Distribution* dist = expr.dist();
  require<ShapeError>(dist != nullptr,
                      what, ": expression references no array (all scalars)");
  require<ShapeError>(expr.conformable_with(*dist),
                      what,
                      ": operands are not conformable; redistribute before "
                      "fusing");
  return *dist;
}

}  // namespace detail

template <class E, class = std::enable_if_t<detail::is_expr_v<E>>>
typename E::value_type sum(const E& expr) {
  using T = typename E::value_type;
  const Distribution& dist = detail::reduce_dist(expr, "sum");
  const T acc = util::parallel_reduce(
      0, static_cast<std::int64_t>(dist.local_count()), util::kDefaultGrain,
      T{0},
      [&expr](std::int64_t lo, std::int64_t hi) {
        T a{0};
        for (std::int64_t i = lo; i < hi; ++i) {
          a += expr.at(static_cast<index_t>(i));
        }
        return a;
      },
      [](T a, T b) { return a + b; });
  return dist.comm().allreduce_value(acc, std::plus<T>{});
}

template <class E, class = std::enable_if_t<detail::is_expr_v<E>>>
typename E::value_type min(const E& expr) {
  using T = typename E::value_type;
  const Distribution& dist = detail::reduce_dist(expr, "min");
  require<NumericalError>(dist.global_shape().count() != 0,
                          "min: empty expression");
  const std::int64_t n = static_cast<std::int64_t>(dist.local_count());
  T acc = std::numeric_limits<T>::max();  // locally-empty rank: never wins
  if (n > 0) {
    acc = util::parallel_reduce(
        0, n, util::kDefaultGrain, acc,
        [&expr](std::int64_t lo, std::int64_t hi) {
          T a = expr.at(static_cast<index_t>(lo));
          for (std::int64_t i = lo + 1; i < hi; ++i) {
            a = std::min(a, expr.at(static_cast<index_t>(i)));
          }
          return a;
        },
        [](T a, T b) { return std::min(a, b); });
  }
  return dist.comm().allreduce_value(acc,
                                     [](T a, T b) { return std::min(a, b); });
}

template <class E, class = std::enable_if_t<detail::is_expr_v<E>>>
typename E::value_type max(const E& expr) {
  using T = typename E::value_type;
  const Distribution& dist = detail::reduce_dist(expr, "max");
  require<NumericalError>(dist.global_shape().count() != 0,
                          "max: empty expression");
  const std::int64_t n = static_cast<std::int64_t>(dist.local_count());
  T acc = std::numeric_limits<T>::lowest();
  if (n > 0) {
    acc = util::parallel_reduce(
        0, n, util::kDefaultGrain, acc,
        [&expr](std::int64_t lo, std::int64_t hi) {
          T a = expr.at(static_cast<index_t>(lo));
          for (std::int64_t i = lo + 1; i < hi; ++i) {
            a = std::max(a, expr.at(static_cast<index_t>(i)));
          }
          return a;
        },
        [](T a, T b) { return std::max(a, b); });
  }
  return dist.comm().allreduce_value(acc,
                                     [](T a, T b) { return std::max(a, b); });
}

template <class E, class = std::enable_if_t<detail::is_expr_v<E>>>
double mean(const E& expr) {
  const Distribution& dist = detail::reduce_dist(expr, "mean");
  const index_t count = dist.global_shape().count();
  require<NumericalError>(count != 0, "mean: empty expression");
  return static_cast<double>(sum(expr)) / static_cast<double>(count);
}

}  // namespace pyhpc::odin
