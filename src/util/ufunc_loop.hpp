// The ufunc loop: out[i] = f(in[i]) and out[i] = f(a[i], b[i]) over
// contiguous buffers, threaded on the task pool in grain-sized chunks.
//
// Each chunk runs one plain loop, compiled twice: once at the build's
// baseline ISA and once as an AVX2 copy (`target("avx2")`) that the CPU
// selects at run time through __builtin_cpu_supports. The copy is the
// same source, so GCC vectorises it 4-wide in place at -O3 (Release) — on
// a sqrt-heavy binary ufunc (hypot) it runs about 1.9x faster than the
// baseline copy (EXPERIMENTS.md E15); at -O2 GCC 12 keeps it scalar.
// Hosts without AVX2, and non-x86 builds, run the baseline loop.
//
// Bit-identity: target("avx2") does not enable FMA, so the AVX2 copy can
// contract nothing the baseline loop does not, and +, -, *, /, sqrt,
// compares and selects are exact lane by lane. Both copies therefore give
// the same bits, NaN and ±Inf included. Exceptions from `f` propagate out
// of either copy like out of any loop.
#pragma once

#include <cstdint>

#include "util/task_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define PYHPC_UFUNC_AVX2 1
#endif

namespace pyhpc::util {

/// True when the host CPU executes AVX2 (checked once; false off x86-64).
inline bool cpu_has_avx2() {
#if defined(PYHPC_UFUNC_AVX2)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

/// One chunk of the plain loops.
template <class T, class F>
void map_chunk(const T* in, T* out, std::int64_t lo, std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(in[i]);
}

template <class T, class F>
void zip_chunk(const T* a, const T* b, T* out, std::int64_t lo,
               std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
}

#if defined(PYHPC_UFUNC_AVX2)
/// The AVX2 copies of the same loops. Call only when cpu_has_avx2().
template <class T, class F>
__attribute__((target("avx2"))) void map_chunk_avx2(const T* in, T* out,
                                                    std::int64_t lo,
                                                    std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(in[i]);
}

template <class T, class F>
__attribute__((target("avx2"))) void zip_chunk_avx2(const T* a, const T* b,
                                                    T* out, std::int64_t lo,
                                                    std::int64_t hi, F& f) {
  for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
}
#endif

/// out[i] = f(in[i]) for i in [0, n); in == out is allowed.
template <class T, class F>
void ufunc_map(const T* in, T* out, std::int64_t n, std::int64_t grain,
               F&& f) {
  parallel_for(0, n, grain, [in, out, &f](std::int64_t lo, std::int64_t hi) {
#if defined(PYHPC_UFUNC_AVX2)
    if (cpu_has_avx2()) return map_chunk_avx2(in, out, lo, hi, f);
#endif
    map_chunk(in, out, lo, hi, f);
  });
}

/// out[i] = f(a[i], b[i]) for i in [0, n); out may alias a or b.
template <class T, class F>
void ufunc_zip(const T* a, const T* b, T* out, std::int64_t n,
               std::int64_t grain, F&& f) {
  parallel_for(0, n, grain,
               [a, b, out, &f](std::int64_t lo, std::int64_t hi) {
#if defined(PYHPC_UFUNC_AVX2)
                 if (cpu_has_avx2()) {
                   return zip_chunk_avx2(a, b, out, lo, hi, f);
                 }
#endif
                 zip_chunk(a, b, out, lo, hi, f);
               });
}

}  // namespace pyhpc::util
