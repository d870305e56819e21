// Tests for util::TaskPool and the ufunc loop (CTest label `pool`):
// exactly-once coverage under concurrent stealing, bit-identical
// deterministic reductions across thread counts and grains, exception
// propagation out of worker chunks, reduce folds and ufunc functors, pool
// reuse, the serial/nested fallbacks, one trace span per region larger than
// one grain, the ufunc loop's AVX2 copy against its plain loop (misaligned
// views, NaN/Inf), and the pool's integration with the ODIN reductions
// (CommConfig::threads) and the obs metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "odin/dist_array.hpp"
#include "odin/expr.hpp"
#include "util/task_pool.hpp"
#include "util/ufunc_loop.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace pu = pyhpc::util;

namespace {

// Scoped thread-count override; restores the previous default on exit so
// tests cannot leak a pool size into each other.
class ThreadScope {
 public:
  explicit ThreadScope(int threads)
      : saved_(pu::TaskPool::thread_default()) {
    pu::TaskPool::set_thread_default(threads);
  }
  ~ThreadScope() { pu::TaskPool::set_thread_default(saved_); }

 private:
  int saved_;
};

// Deterministic "nasty" doubles whose sum depends on association order —
// the payload for the bit-equality tests.
std::vector<double> nasty_values(std::size_t n) {
  std::vector<double> v(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const double mag = static_cast<double>(s % 1000003);
    v[i] = (i % 2 == 0 ? mag : -mag) * (1.0 + 1e-9 * static_cast<double>(i));
  }
  return v;
}

}  // namespace

TEST(TaskPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadScope scope(4);
  constexpr std::int64_t kN = 200000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  // Small grain -> many chunks -> heavy concurrent stealing.
  pu::parallel_for(0, kN, 512, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, ParallelForHonorsSubrangeBounds) {
  ThreadScope scope(3);
  constexpr std::int64_t kBegin = 1000, kEnd = 54321;
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t> min_seen{kEnd}, max_seen{kBegin};
  pu::parallel_for(kBegin, kEnd, 777, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
    std::int64_t cur = min_seen.load();
    while (lo < cur && !min_seen.compare_exchange_weak(cur, lo)) {
    }
    cur = max_seen.load();
    while (hi > cur && !max_seen.compare_exchange_weak(cur, hi)) {
    }
  });
  EXPECT_EQ(total.load(), kEnd - kBegin);
  EXPECT_EQ(min_seen.load(), kBegin);
  EXPECT_EQ(max_seen.load(), kEnd);
}

TEST(TaskPool, ReduceBitIdenticalAcrossThreadCounts) {
  const auto v = nasty_values(100000);
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  auto run_sum = [&] {
    return pu::parallel_reduce(
        0, n, 257, 0.0,
        [&](std::int64_t lo, std::int64_t hi) {
          double a = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) {
            a += v[static_cast<std::size_t>(i)];
          }
          return a;
        },
        [](double a, double b) { return a + b; });
  };
  double reference = 0.0;
  {
    ThreadScope scope(1);
    reference = run_sum();
  }
  for (int threads : {2, 4, 7}) {
    ThreadScope scope(threads);
    const double got = run_sum();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(reference))
        << "threads=" << threads;
  }
}

TEST(TaskPool, ReduceEmptyRangeReturnsIdentity) {
  ThreadScope scope(4);
  const double got = pu::parallel_reduce(
      5, 5, 100, -1.25,
      [](std::int64_t, std::int64_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, -1.25);
}

TEST(TaskPool, ExceptionPropagatesFromWorkerChunk) {
  ThreadScope scope(4);
  EXPECT_THROW(
      pu::parallel_for(0, 100000, 128,
                       [](std::int64_t lo, std::int64_t) {
                         if (lo == 50048) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing region: the next region runs normally.
  std::atomic<std::int64_t> total{0};
  pu::parallel_for(0, 10000, 128, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10000);
}

TEST(TaskPool, PoolIsReusedAcrossRegions) {
  ThreadScope scope(4);
  auto& pool = pu::TaskPool::current();
  const auto before = pool.stats();
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(0, 5000, 100, [&](std::int64_t lo, std::int64_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50000);
  const auto after = pool.stats();
  EXPECT_EQ(after.regions, before.regions + 10);
  EXPECT_EQ(after.tasks, before.tasks + 10 * 50);
}

TEST(TaskPool, TinyRangeFallsBackToSerial) {
  ThreadScope scope(4);
  auto& pool = pu::TaskPool::current();
  const auto before = pool.stats();
  std::int64_t covered = 0;
  pool.parallel_for(0, 10, 1000, [&](std::int64_t lo, std::int64_t hi) {
    covered += hi - lo;  // no atomics needed: runs inline on this thread
  });
  EXPECT_EQ(covered, 10);
  const auto after = pool.stats();
  EXPECT_EQ(after.serial_regions, before.serial_regions + 1);
  EXPECT_EQ(after.regions, before.regions);
}

TEST(TaskPool, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadScope scope(4);
  constexpr std::int64_t kOuter = 8, kInner = 4096;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pu::parallel_for(0, kOuter, 1, [&](std::int64_t olo, std::int64_t ohi) {
    for (std::int64_t o = olo; o < ohi; ++o) {
      // Inner parallel call from inside a region body: must degrade to
      // serial instead of waiting on the pool it is running on.
      pu::parallel_for(0, kInner, 256, [&, o](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
              1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(TaskPool, ConfiguredThreadsFollowsOverride) {
  {
    ThreadScope scope(6);
    EXPECT_EQ(pu::TaskPool::configured_threads(), 6);
    EXPECT_EQ(pu::TaskPool::current().threads(), 6);
  }
  {
    ThreadScope scope(2);
    EXPECT_EQ(pu::TaskPool::current().threads(), 2);
  }
}

TEST(TaskPool, PoolMetricsReachGlobalRegistry) {
  ThreadScope scope(4);
  auto& reg = pyhpc::obs::MetricsRegistry::global();
  const double regions_before = reg.value("pool.regions");
  pu::parallel_for(0, 100000, 1024, [](std::int64_t, std::int64_t) {});
  EXPECT_GE(reg.value("pool.regions"), regions_before + 1.0);
  EXPECT_GE(reg.value("pool.threads"), 4.0);
  EXPECT_TRUE(reg.has("pool.tasks"));
}

TEST(TaskPool, RegionsLargerThanOneGrainRecordOneSpanEvenOnOneLane) {
#if defined(PYHPC_OBS_NO_TRACE)
  GTEST_SKIP() << "trace recorder compiled out";
#else
  namespace obs = pyhpc::obs;
  ThreadScope scope(1);
  auto one = [](std::int64_t, std::int64_t) { return 1; };
  auto add = [](int a, int b) { return a + b; };
  obs::set_trace_enabled(false);
  obs::clear_trace();
  obs::set_trace_enabled(true);
  // At most one grain: inline and uninstrumented.
  pu::parallel_for(0, 1000, 1000, [](std::int64_t, std::int64_t) {});
  EXPECT_EQ(pu::parallel_reduce(0, 1000, 1000, 0, one, add), 1);
  EXPECT_EQ(obs::trace_event_count(), 0u);
  // Larger: one span per region, although one lane runs it inline.
  pu::parallel_for(0, 5000, 1000, [](std::int64_t, std::int64_t) {});
  EXPECT_EQ(pu::parallel_reduce(0, 5000, 1000, 0, one, add), 5);
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 2u);
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"name\":\"pool.parallel_for\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool.parallel_reduce\""),
            std::string::npos);
  obs::clear_trace();
#endif
}

// ---- the ufunc loop ---------------------------------------------------------

TEST(UfuncLoop, Avx2CopyBitIdenticalToPlainLoop) {
#if !defined(PYHPC_UFUNC_AVX2)
  GTEST_SKIP() << "build has no AVX2 copy of the ufunc loop";
#else
  if (!pu::cpu_has_avx2()) GTEST_SKIP() << "host lacks AVX2";
  constexpr std::int64_t kN = 10000;
  auto a = nasty_values(static_cast<std::size_t>(kN) + 8);
  std::vector<double> b(a.rbegin(), a.rend());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i : {4u, 17u, 18u, 4001u}) a[i] = nan;
  for (std::size_t i : {5u, 18u, 700u, 4001u}) b[i] = nan;
  for (std::size_t i : {9u, 701u}) a[i] = inf;
  for (std::size_t i : {10u, 702u}) a[i] = -inf;
  for (std::size_t i : {9u, 3000u}) b[i] = -inf;
  for (std::size_t i : {11u, 702u}) b[i] = inf;

  // Bodies where a contracted multiply-add would change the bits.
  auto sqrt_div = [](double x) {
    return std::sqrt(std::abs(x)) / (0.1 + x * x);
  };
  auto hypot_body = [](double x, double y) {
    return std::sqrt(x * x + y * y);
  };
  auto lo = [](double x, double y) { return std::min(x, y); };
  auto hi = [](double x, double y) { return std::max(x, y); };
  auto expect_same_bits = [](const std::vector<double>& got,
                             const std::vector<double>& ref, const char* what,
                             std::size_t off) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << what << " offset=" << off << " i=" << i;
    }
  };

  for (std::size_t off : {0u, 1u, 3u}) {
    // Out of place: operand and output views at the offset, the second
    // zip operand aligned.
    std::vector<double> ref(a.size()), got(a.size());
    pu::map_chunk(a.data() + off, ref.data() + off, 0, kN, sqrt_div);
    pu::map_chunk_avx2(a.data() + off, got.data() + off, 0, kN, sqrt_div);
    expect_same_bits(got, ref, "map", off);
    pu::zip_chunk(a.data() + off, b.data(), ref.data() + off, 0, kN,
                  hypot_body);
    pu::zip_chunk_avx2(a.data() + off, b.data(), got.data() + off, 0, kN,
                       hypot_body);
    expect_same_bits(got, ref, "zip hypot", off);
    pu::zip_chunk(a.data() + off, b.data(), ref.data() + off, 0, kN, lo);
    pu::zip_chunk_avx2(a.data() + off, b.data(), got.data() + off, 0, kN, lo);
    expect_same_bits(got, ref, "zip min", off);
    pu::zip_chunk(a.data() + off, b.data(), ref.data() + off, 0, kN, hi);
    pu::zip_chunk_avx2(a.data() + off, b.data(), got.data() + off, 0, kN, hi);
    expect_same_bits(got, ref, "zip max", off);

    // In place: the output aliases the (first) operand.
    ref = a;
    got = a;
    pu::map_chunk(ref.data() + off, ref.data() + off, 0, kN, sqrt_div);
    pu::map_chunk_avx2(got.data() + off, got.data() + off, 0, kN, sqrt_div);
    expect_same_bits(got, ref, "in-place map", off);
    ref = a;
    got = a;
    pu::zip_chunk(ref.data() + off, b.data(), ref.data() + off, 0, kN, hi);
    pu::zip_chunk_avx2(got.data() + off, b.data(), got.data() + off, 0, kN,
                       hi);
    expect_same_bits(got, ref, "in-place zip max", off);
  }

  // A throwing functor propagates out of the AVX2 copy, directly and
  // through the threaded ufunc_map that selects it on this host.
  ThreadScope scope(4);
  std::vector<double> v(100000, 1.0), out(v.size());
  v[54321] = 0.5;
  auto thrower = [](double x) {
    if (x == 0.5) throw std::runtime_error("boom");
    return x;
  };
  EXPECT_THROW(pu::map_chunk_avx2(v.data(), out.data(), 0, 100000, thrower),
               std::runtime_error);
  EXPECT_THROW(pu::ufunc_map(v.data(), out.data(), 100000, 1024, thrower),
               std::runtime_error);
#endif
}

// ---- the execution layer under every kernel ---------------------------------
//
// Every kernel runs on one of two loops: the pool's chunked parallel_for /
// parallel_reduce, or the ufunc loop, whose chunks take the AVX2 copy when
// the CPU has AVX2 and the plain loop otherwise. The ExecSpace cases run
// each of those paths (the "backends") against its reference: one lane,
// which runs the same chunks and pairwise tree inline, and the plain loop.

TEST(ExecSpace, ForEachElementBodyCoversEveryIndexExactlyOncePerBackend) {
  // Element bodies run through the ufunc loop. in[i] == i, so the functor
  // records which element it was handed.
  constexpr std::int64_t kN = 100000;
  std::vector<double> in(kN), out(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    in[static_cast<std::size_t>(i)] = static_cast<double>(i);
  }
  std::vector<std::atomic<int>> hits(kN);
  auto visit = [&hits](double x) {
    hits[static_cast<std::size_t>(x)].fetch_add(1, std::memory_order_relaxed);
    return x;
  };
  auto expect_each_once = [&hits](const char* what, int lanes) {
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].exchange(0), 1)
          << what << " lanes=" << lanes << " i=" << i;
    }
  };
  for (int lanes : {1, 4}) {
    ThreadScope scope(lanes);
    pu::ufunc_map(in.data(), out.data(), kN, 1024, visit);
    expect_each_once("ufunc_map", lanes);
  }
  pu::map_chunk(in.data(), out.data(), 0, kN, visit);
  expect_each_once("plain loop", 1);
#if defined(PYHPC_UFUNC_AVX2)
  if (pu::cpu_has_avx2()) {
    pu::map_chunk_avx2(in.data(), out.data(), 0, kN, visit);
    expect_each_once("avx2 copy", 1);
  }
#endif
}

TEST(ExecSpace, ForEachChunkBodyCoversEveryIndexExactlyOncePerBackend) {
  constexpr std::int64_t kN = 100000;
  for (int lanes : {1, 2, 4, 8}) {
    ThreadScope scope(lanes);
    std::vector<std::atomic<int>> hits(kN);
    pu::parallel_for(0, kN, 1024, [&hits](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "lanes=" << lanes << " i=" << i;
    }
  }
}

TEST(ExecSpace, EmptyAndSingleElementAndOddRanges) {
  auto twice = [](double x) { return 2.0 * x; };
  for (int lanes : {1, 4}) {
    ThreadScope scope(lanes);
    // Empty and reversed ranges: the body never runs, identity comes back.
    pu::parallel_for(5, 5, 64, [](std::int64_t, std::int64_t) { FAIL(); });
    pu::parallel_for(9, 5, 64, [](std::int64_t, std::int64_t) { FAIL(); });
    EXPECT_EQ(pu::parallel_reduce(
                  3, 3, 64, -1,
                  [](std::int64_t, std::int64_t) { return 99; },
                  [](int a, int b) { return a + b; }),
              -1);
    pu::ufunc_map(static_cast<const double*>(nullptr),
                  static_cast<double*>(nullptr), 0, 64, [](double) -> double {
                    ADD_FAILURE() << "ufunc_map called f on an empty range";
                    return 0.0;
                  });
    // A single element: one chunk holding exactly that index.
    int calls = 0;
    pu::parallel_for(7, 8, 64, [&calls](std::int64_t lo, std::int64_t hi) {
      EXPECT_EQ(lo, 7);
      EXPECT_EQ(hi, 8);
      ++calls;
    });
    EXPECT_EQ(calls, 1);
    // Odd-length range not divisible by the grain, non-zero begin.
    std::vector<std::atomic<int>> hits(1001);
    pu::parallel_for(1, 1000, 7, [&hits](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    EXPECT_EQ(hits[0].load(), 0);
    EXPECT_EQ(hits[1000].load(), 0);
    for (std::size_t i = 1; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1);
    // The ufunc loop on 1 and on 999 elements (no whole AVX2 vector left
    // over) agrees with the plain loop.
    for (std::int64_t n : {1, 999}) {
      std::vector<double> in(static_cast<std::size_t>(n)), out(in.size()),
          ref(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = 0.5 + static_cast<double>(i);
      }
      pu::map_chunk(in.data(), ref.data(), 0, n, twice);
      pu::ufunc_map(in.data(), out.data(), n, 7, twice);
      EXPECT_EQ(out, ref) << "n=" << n << " lanes=" << lanes;
    }
  }
}

TEST(ExecSpace, ReduceBitIdenticalAcrossBackendsAndThreadCountsAndGrains) {
  const auto v = nasty_values(300001);
  const double* d = v.data();
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  for (std::int64_t grain : {64, 1000, 8192}) {
    double reference = 0.0;
    for (int lanes : {1, 2, 4, 8}) {
      ThreadScope scope(lanes);
      const double got = pu::parallel_reduce(
          0, n, grain, 0.0,
          [d](std::int64_t lo, std::int64_t hi) {
            double a = 0.0;
            for (std::int64_t i = lo; i < hi; ++i) a += d[i];
            return a;
          },
          [](double a, double b) { return a + b; });
      if (lanes == 1) reference = got;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(reference))
          << "lanes=" << lanes << " grain=" << grain;
    }
  }
}

TEST(ExecSpace, ElementwiseMapBitIdenticalAcrossBackends) {
  // sqrt/divide-heavy body: the kind the AVX2 copy vectorises hardest.
  const auto v = nasty_values(65537);
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  auto f = [](double x) { return std::sqrt(std::abs(x)) / (1.0 + x * x); };
  std::vector<double> ref(v.size()), out(v.size());
  pu::map_chunk(v.data(), ref.data(), 0, n, f);
  for (int lanes : {1, 4}) {
    ThreadScope scope(lanes);
    std::fill(out.begin(), out.end(), 0.0);
    pu::ufunc_map(v.data(), out.data(), n, 4096, f);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << "lanes=" << lanes << " i=" << i;
    }
  }
}

TEST(ExecSpace, MapAndZipHandleMisalignedViews) {
  // Offset views into one allocation: every combination of (aligned,
  // misaligned) operand pointers gives the plain loop's values.
  ThreadScope scope(4);
  constexpr std::int64_t kN = 10000;
  std::vector<double> a(kN + 8), b(kN + 8), out(kN + 8), ref(kN + 8);
  for (std::int64_t i = 0; i < kN + 8; ++i) {
    a[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i) - 7.0;
    b[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 13);
  }
  auto f2 = [](double x, double y) { return x / y + x * y; };
  for (std::size_t da : {0u, 1u, 3u}) {
    for (std::size_t db : {0u, 2u}) {
      pu::zip_chunk(a.data() + da, b.data() + db, ref.data(), 0, kN, f2);
      pu::ufunc_zip(a.data() + da, b.data() + db, out.data(), kN, 512, f2);
      for (std::size_t i = 0; i < static_cast<std::size_t>(kN); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(ref[i]))
            << "da=" << da << " db=" << db << " i=" << i;
      }
    }
  }
  // In-place map on a misaligned view (transform()'s shape).
  auto g = [](double x) { return 3.0 * x - 1.0; };
  std::vector<double> c(a.begin(), a.end()), cref(a.begin(), a.end());
  pu::map_chunk(cref.data() + 1, cref.data() + 1, 0, kN, g);
  pu::ufunc_map(c.data() + 1, c.data() + 1, kN, 512, g);
  EXPECT_EQ(c, cref);
}

TEST(ExecSpace, ExceptionFromBodyPropagatesUnderEveryBackend) {
  std::vector<double> v(100000, 1.0), out(v.size());
  v[54321] = 0.5;
  auto thrower = [](double x) {
    if (x == 0.5) throw std::runtime_error("boom");
    return x;
  };
  for (int lanes : {1, 4}) {
    ThreadScope scope(lanes);
    EXPECT_THROW(pu::parallel_for(0, 100000, 128,
                                  [](std::int64_t lo, std::int64_t hi) {
                                    if (lo <= 54321 && 54321 < hi) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error)
        << "lanes=" << lanes;
    EXPECT_THROW(pu::parallel_reduce(
                     0, 100000, 128, 0.0,
                     [](std::int64_t lo, std::int64_t) -> double {
                       if (lo >= 50000) throw std::runtime_error("boom");
                       return 1.0;
                     },
                     [](double a, double b) { return a + b; }),
                 std::runtime_error)
        << "lanes=" << lanes;
    EXPECT_THROW(pu::ufunc_map(v.data(), out.data(), 100000, 1024, thrower),
                 std::runtime_error)
        << "lanes=" << lanes;
    EXPECT_THROW(pu::ufunc_zip(v.data(), v.data(), out.data(), 100000, 1024,
                               [&thrower](double x, double) {
                                 return thrower(x);
                               }),
                 std::runtime_error)
        << "lanes=" << lanes;
  }
}

TEST(ExecSpace, NanInfMinMaxMeanAgreeBetweenSimdAndSerial) {
  // The classic SIMD hazard: vectorised min/max can flip NaN propagation
  // (minpd is not commutative in its NaN handling). The ufunc loop's copy
  // this CPU selects must give the plain loop's bits, and the reductions
  // must give the one-lane bits, NaN and ±Inf included.
  constexpr std::int64_t kN = 40000;
  std::vector<double> v(kN), w(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.01 * static_cast<double>(i));
    w[static_cast<std::size_t>(i)] = std::cos(0.013 * static_cast<double>(i));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  v[7] = nan;
  v[123] = inf;
  v[20011] = -inf;
  w[8] = nan;
  w[123] = -inf;
  w[20011] = nan;

  const double* d = v.data();
  auto min_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = d[lo];
    for (std::int64_t i = lo + 1; i < hi; ++i) a = std::min(a, d[i]);
    return a;
  };
  auto max_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = d[lo];
    for (std::int64_t i = lo + 1; i < hi; ++i) a = std::max(a, d[i]);
    return a;
  };
  auto sum_fold = [d](std::int64_t lo, std::int64_t hi) {
    double a = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) a += d[i];
    return a;
  };
  auto reductions = [&] {
    const double mn = pu::parallel_reduce(
        0, kN, 1024, std::numeric_limits<double>::max(), min_fold,
        [](double a, double b) { return std::min(a, b); });
    const double mx = pu::parallel_reduce(
        0, kN, 1024, std::numeric_limits<double>::lowest(), max_fold,
        [](double a, double b) { return std::max(a, b); });
    const double mean =
        pu::parallel_reduce(0, kN, 1024, 0.0, sum_fold,
                            [](double a, double b) { return a + b; }) /
        static_cast<double>(kN);
    return std::array<double, 3>{mn, mx, mean};
  };
  std::array<double, 3> serial{};
  {
    ThreadScope scope(1);
    serial = reductions();
  }
  for (int lanes : {2, 4, 7}) {
    ThreadScope scope(lanes);
    const auto got = reductions();
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(serial[k]))
          << "lanes=" << lanes << " k=" << k;
    }
  }

  ThreadScope scope(4);
  auto expect_zip_matches_plain_loop = [&](auto op, const char* what) {
    std::vector<double> ref(kN), out(kN);
    pu::zip_chunk(v.data(), w.data(), ref.data(), 0, kN, op);
    pu::ufunc_zip(v.data(), w.data(), out.data(), kN, 1024, op);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << what << " i=" << i;
    }
  };
  expect_zip_matches_plain_loop(
      [](double x, double y) { return std::min(x, y); }, "min");
  expect_zip_matches_plain_loop(
      [](double x, double y) { return std::max(x, y); }, "max");
}

// ---- integration: ODIN reductions through CommConfig::threads -------------

TEST(TaskPoolOdin, DistArrayReductionsInvariantAcrossCommThreads) {
  struct Result {
    std::uint64_t sum, min, max, norm2, mean;
  };
  auto run_with_threads = [](int threads) {
    Result out{};
    pc::CommConfig config;
    config.threads = threads;
    pc::run(2, config, [&out](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({40000}), 0);
      auto a = od::DistArray<double>::random(dist, /*seed=*/7);
      const Result r{std::bit_cast<std::uint64_t>(a.sum()),
                     std::bit_cast<std::uint64_t>(a.min()),
                     std::bit_cast<std::uint64_t>(a.max()),
                     std::bit_cast<std::uint64_t>(a.norm2()),
                     std::bit_cast<std::uint64_t>(a.mean())};
      if (comm.rank() == 0) out = r;
    });
    return out;
  };
  const Result serial = run_with_threads(1);
  for (int threads : {2, 4, 7}) {
    const Result par = run_with_threads(threads);
    EXPECT_EQ(par.sum, serial.sum) << "threads=" << threads;
    EXPECT_EQ(par.min, serial.min) << "threads=" << threads;
    EXPECT_EQ(par.max, serial.max) << "threads=" << threads;
    EXPECT_EQ(par.norm2, serial.norm2) << "threads=" << threads;
    EXPECT_EQ(par.mean, serial.mean) << "threads=" << threads;
  }
}

TEST(TaskPoolOdin, FusedReductionsMatchEagerAndStayDeterministic) {
  for (int threads : {1, 4}) {
    pc::CommConfig config;
    config.threads = threads;
    pc::run(2, config, [](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({20000}), 0);
      auto x = od::DistArray<double>::random(dist, 3);
      auto y = od::DistArray<double>::random(dist, 4);
      const auto expr = od::lazy(x) * 2.0 + od::lazy(y);
      // Fused reductions agree with the materialized equivalents.
      auto eager = od::eval(expr);
      EXPECT_NEAR(od::sum(expr), eager.sum(), 1e-9);
      EXPECT_DOUBLE_EQ(od::min(expr), eager.min());
      EXPECT_DOUBLE_EQ(od::max(expr), eager.max());
      EXPECT_NEAR(od::mean(expr), eager.mean(), 1e-12);
    });
  }
}

TEST(TaskPoolOdin, EmptyArrayReductionSemanticsPreserved) {
  pc::CommConfig config;
  config.threads = 4;
  pc::run(2, config, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({0}), 0);
    od::DistArray<double> a(dist);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);  // sum of nothing is 0
    EXPECT_THROW(a.min(), pyhpc::NumericalError);
    EXPECT_THROW(a.max(), pyhpc::NumericalError);
    EXPECT_THROW(a.mean(), pyhpc::NumericalError);
    const auto expr = od::lazy(a) * 2.0;
    EXPECT_DOUBLE_EQ(od::sum(expr), 0.0);
    EXPECT_THROW(od::min(expr), pyhpc::NumericalError);
    EXPECT_THROW(od::max(expr), pyhpc::NumericalError);
    EXPECT_THROW(od::mean(expr), pyhpc::NumericalError);
  });
}
