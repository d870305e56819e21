// Per-rank work-stealing thread pool: the intra-rank half of the scaling
// story. The comm layer scales *across* ranks (PR 3's collectives); this
// pool scales *within* one, threading the node-local kernels (ufunc
// application, fused expression evaluation, reductions, SpMV, relaxation
// sweeps) that otherwise use one core per rank. Every such kernel calls
// util::parallel_for or util::parallel_reduce directly with a chunk body
// `body(lo, hi)` that owns its inner loop; there is no backend choice.
//
// Model: every rank thread owns at most one lazily started pool
// (`TaskPool::current()` is thread-local). A parallel region splits an
// index range into fixed-size chunks (the `grain`), deals them round-robin
// onto per-lane deques, and the calling thread plus the worker threads
// drain them — own deque from the front, other lanes' deques from the back
// (steals). The free functions run a range of at most one grain inline on
// the caller with no pool lookup, no atomics, and no instrumentation, so
// tiny arrays pay nothing. A larger range hands the pool a reference to
// the caller's body (TaskPool::Body), never a copy of its captures.
// Nested regions (a threaded kernel calling another threaded kernel from
// inside a worker task) degrade to serial instead of deadlocking.
//
// Sizing: `PYHPC_THREADS` (process-wide default, 1 = serial when unset) or
// `CommConfig::threads`, which comm::run installs per rank thread via
// set_thread_default(). Pool worker threads must never call into the comm
// layer — region bodies are pure local compute; collectives stay on the
// rank thread.
//
// Determinism: parallel_reduce chunks by `grain` alone — never by thread
// count — folds each chunk left-to-right, and combines the chunk partials
// in a fixed-shape pairwise tree. The result is bit-identical for any
// thread count: the serial fallback walks the very same chunks inline, so
// even a 1-lane pool produces the same partials and the same tree.
//
// Observability: every region larger than one grain records one obs span
// ("pool.parallel_for" / "pool.parallel_reduce", category "pool") carrying
// threads/grain/n args — on a 1-lane pool too. Regions the pool schedules
// across lanes add tasks/steals args and fold pool.regions / pool.tasks /
// pool.steals counters plus the pool.threads max-gauge into the global
// MetricsRegistry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace pyhpc::util {

/// Default chunk size for the threaded hot loops: big enough that a chunk
/// amortizes scheduling (tens of microseconds of work), small enough that
/// the large bench sizes split into many times the thread count.
inline constexpr std::int64_t kDefaultGrain = 8192;

class TaskPool {
 public:
  /// body(lo, hi): process the half-open subrange [lo, hi). parallel_for
  /// invokes it on disjoint chunks exactly covering [begin, end), each
  /// chunk [begin + c*grain, min(begin + (c+1)*grain, end)) — callers may
  /// recover the chunk index as (lo - begin) / grain.
  ///
  /// A non-owning reference to the caller's callable: a region blocks
  /// until every chunk ran, so the callable outlives it and nothing is
  /// copied or allocated.
  class Body {
   public:
    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Body> &&
               std::is_invocable_v<F&, std::int64_t, std::int64_t>)
    Body(F&& f) noexcept
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, std::int64_t lo, std::int64_t hi) {
            (*static_cast<std::remove_reference_t<F>*>(obj))(lo, hi);
          }) {}

    void operator()(std::int64_t lo, std::int64_t hi) const {
      call_(obj_, lo, hi);
    }

   private:
    void* obj_;
    void (*call_)(void*, std::int64_t, std::int64_t);
  };

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// The calling thread's pool, created on first use with
  /// configured_threads() lanes. If the configured size changed since the
  /// pool was built (and no region is running), the pool is rebuilt.
  static TaskPool& current();

  /// Lanes new pools on this thread get: the set_thread_default override
  /// when positive, else PYHPC_THREADS, else 1 (serial).
  static int configured_threads();

  /// Per-thread override (comm::run installs CommConfig::threads here for
  /// each rank thread); 0 reverts to the environment default.
  static void set_thread_default(int threads);
  static int thread_default();

  /// Total lanes including the calling thread (1 = serial pool).
  int threads() const { return lanes_; }

  /// Runs body over [begin, end) in chunks of at most `grain`, in parallel
  /// when the range exceeds one grain and the pool has more than one lane.
  /// Blocks until every chunk completed; the first exception thrown by a
  /// chunk is rethrown here (remaining chunks are skipped).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    Body body);

  /// Deterministic tree reduction. `fold(lo, hi) -> T` computes one chunk's
  /// partial (left-to-right); `combine(a, b) -> T` merges two partials and
  /// is applied in a fixed-shape pairwise tree over the chunk sequence.
  /// Chunking depends only on `grain`, so the result is bit-identical
  /// across thread counts. `identity` is returned for an empty range only;
  /// fold itself must seed each chunk (with the op's identity or the
  /// chunk's first element, whichever the reduction needs).
  template <class T, class Fold, class Combine>
  T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    T identity, Fold&& fold, Combine&& combine) {
    if (end <= begin) return identity;
    if (grain < 1) grain = 1;
    const std::int64_t nchunks = (end - begin + grain - 1) / grain;
    if (nchunks == 1) return fold(begin, end);

    obs::Span span("pool.parallel_reduce", "pool");
    std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
    run(begin, end, grain,
        [&](std::int64_t lo, std::int64_t hi) {
          partials[static_cast<std::size_t>((lo - begin) / grain)] =
              fold(lo, hi);
        },
        span);
    // Fixed-shape pairwise tree: (p0⊕p1) ⊕ (p2⊕p3) ... independent of how
    // chunks were scheduled onto lanes.
    std::vector<T> level = std::move(partials);
    while (level.size() > 1) {
      std::vector<T> next;
      next.reserve((level.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        next.push_back(combine(std::move(level[i]), std::move(level[i + 1])));
      }
      if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
      level = std::move(next);
    }
    return std::move(level.front());
  }

  /// Lifetime totals for this pool (monotone; also folded into the global
  /// MetricsRegistry as pool.* after every parallel region).
  struct Stats {
    std::uint64_t regions = 0;         ///< parallel (pool-scheduled) regions
    std::uint64_t serial_regions = 0;  ///< regions short-circuited inline
    std::uint64_t tasks = 0;           ///< chunks executed by the pool
    std::uint64_t steals = 0;          ///< chunks taken from another lane
  };
  Stats stats() const;

 private:
  struct Impl;
  explicit TaskPool(int lanes);
  /// Runs a region larger than one grain: inline chunk by chunk on a
  /// 1-lane pool or inside another region, else across the lanes.
  /// Annotates `span` (the caller's region span) with the region's shape.
  void run(std::int64_t begin, std::int64_t end, std::int64_t grain,
           Body body, obs::Span& span);

  Impl* impl_;
  int lanes_;
};

/// The kernel entry points, over the calling thread's pool. A range of at
/// most one grain runs inline as one chunk without looking the pool up;
/// anything larger goes to TaskPool::current() by reference.
template <class F>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  F&& body) {
  if (end <= begin) return;
  if (end - begin <= std::max<std::int64_t>(grain, 1)) {
    body(begin, end);
    return;
  }
  TaskPool::current().parallel_for(begin, end, grain, body);
}

template <class T, class Fold, class Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  T identity, Fold&& fold, Combine&& combine) {
  if (end <= begin) return identity;
  if (end - begin <= std::max<std::int64_t>(grain, 1)) return fold(begin, end);
  return TaskPool::current().parallel_reduce(begin, end, grain,
                                             std::move(identity), fold,
                                             combine);
}

}  // namespace pyhpc::util
