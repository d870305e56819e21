#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pyhpc::util {

namespace {

// True while this thread is executing a chunk of some region (worker lane
// or caller lane). Nested parallel calls observe it and run inline —
// otherwise a region body waiting on an inner region's workers could
// deadlock the pool against itself.
thread_local bool t_in_region = false;

// Per-thread lane-count override (set_thread_default); 0 = environment.
thread_local int t_thread_override = 0;

int env_threads() {
  static const int value = [] {
    const char* s = std::getenv("PYHPC_THREADS");
    if (s == nullptr || *s == '\0') return 1;
    const long v = std::strtol(s, nullptr, 10);
    if (v < 1) return 1;
    if (v > 256) return 256;
    return static_cast<int>(v);
  }();
  return value;
}

}  // namespace

struct TaskPool::Impl {
  // Per-region shared state. The caller blocks until its region drains, so
  // a Region outlives every task pointing at it. Tasks carry their region:
  // a worker that lingers in its drain loop past one region's completion
  // executes whatever the deques hold next against the right state.
  struct Region {
    explicit Region(Body b) : body(b) {}
    Body body;
    std::int64_t ntasks = 0;
    std::atomic<std::int64_t> remaining{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  struct Task {
    Region* region;
    std::int64_t lo;
    std::int64_t hi;
  };

  // One deque per lane; lane 0 is the owning (caller) thread. A lane pops
  // its own deque from the front and steals from other lanes' backs.
  struct Lane {
    std::mutex mu;
    std::deque<Task> q;
  };

  explicit Impl(int lanes) : lanes(lanes) {
    deques.reserve(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) deques.push_back(std::make_unique<Lane>());
  }

  const int lanes;
  std::vector<std::unique_ptr<Lane>> deques;
  std::vector<std::thread> workers;  // lanes 1..lanes-1, started lazily
  bool started = false;

  // Region hand-off: workers sleep until a new region epoch (or stop).
  std::mutex region_mu;
  std::condition_variable region_cv;
  std::uint64_t epoch = 0;
  bool stop = false;

  // Region completion: the last finished task notifies the waiting caller.
  std::mutex done_mu;
  std::condition_variable done_cv;

  // Lifetime stats.
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> serial_regions{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};

  bool pop_own(int lane, Task& out) {
    Lane& l = *deques[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lock(l.mu);
    if (l.q.empty()) return false;
    out = l.q.front();
    l.q.pop_front();
    return true;
  }

  bool steal_other(int lane, Task& out) {
    for (int d = 1; d < lanes; ++d) {
      const int victim = (lane + d) % lanes;
      Lane& l = *deques[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lock(l.mu);
      if (l.q.empty()) continue;
      out = l.q.back();
      l.q.pop_back();
      return true;
    }
    return false;
  }

  void execute(const Task& t) {
    Region* r = t.region;
    if (!r->cancelled.load(std::memory_order_relaxed)) {
      try {
        r->body(t.lo, t.hi);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(r->error_mu);
          if (!r->error) r->error = std::current_exception();
        }
        r->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    tasks.fetch_add(1, std::memory_order_relaxed);
    if (r->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: wake the caller. Locking pairs with its predicate check.
      { std::lock_guard<std::mutex> lock(done_mu); }
      done_cv.notify_all();
    }
  }

  // Drains the deques from this lane: own deque first, then steals. Every
  // task of a region is enqueued before the region's caller starts
  // draining, so returning on empty deques never strands region work.
  void drain(int lane) {
    t_in_region = true;
    for (;;) {
      Task t;
      if (!pop_own(lane, t)) {
        if (!steal_other(lane, t)) break;
        steals.fetch_add(1, std::memory_order_relaxed);
        t.region->steals.fetch_add(1, std::memory_order_relaxed);
      }
      execute(t);
    }
    t_in_region = false;
  }

  void worker_main(int lane) {
    std::unique_lock<std::mutex> lock(region_mu);
    std::uint64_t seen = 0;
    for (;;) {
      region_cv.wait(lock, [&] { return stop || epoch != seen; });
      if (stop) return;
      seen = epoch;
      lock.unlock();
      drain(lane);
      lock.lock();
    }
  }

  void ensure_started() {
    if (started) return;
    started = true;
    workers.reserve(static_cast<std::size_t>(lanes - 1));
    for (int lane = 1; lane < lanes; ++lane) {
      workers.emplace_back([this, lane] { worker_main(lane); });
    }
    obs::MetricsRegistry::global().set_max("pool.threads",
                                           static_cast<double>(lanes));
  }
};

TaskPool::TaskPool(int lanes) : impl_(new Impl(lanes)), lanes_(lanes) {}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->region_mu);
    impl_->stop = true;
  }
  impl_->region_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

TaskPool& TaskPool::current() {
  thread_local std::unique_ptr<TaskPool> t_pool;
  const int want = configured_threads();
  if (!t_pool || (t_pool->lanes_ != want && !t_in_region)) {
    t_pool = std::unique_ptr<TaskPool>(new TaskPool(want));
  }
  return *t_pool;
}

int TaskPool::configured_threads() {
  return t_thread_override > 0 ? t_thread_override : env_threads();
}

void TaskPool::set_thread_default(int threads) {
  require(threads >= 0, "TaskPool::set_thread_default: negative thread count");
  t_thread_override = threads;
}

int TaskPool::thread_default() { return t_thread_override; }

TaskPool::Stats TaskPool::stats() const {
  Stats s;
  s.regions = impl_->regions.load(std::memory_order_relaxed);
  s.serial_regions = impl_->serial_regions.load(std::memory_order_relaxed);
  s.tasks = impl_->tasks.load(std::memory_order_relaxed);
  s.steals = impl_->steals.load(std::memory_order_relaxed);
  return s;
}

void TaskPool::parallel_for(std::int64_t begin, std::int64_t end,
                            std::int64_t grain, Body body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  if (end - begin <= grain) {
    impl_->serial_regions.fetch_add(1, std::memory_order_relaxed);
    body(begin, end);
    return;
  }
  obs::Span span("pool.parallel_for", "pool");
  run(begin, end, grain, body, span);
}

void TaskPool::run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   Body body, obs::Span& span) {
  if (span.active()) {
    span.arg("threads", static_cast<std::int64_t>(lanes_));
    span.arg("grain", grain);
    span.arg("n", end - begin);
  }
  if (lanes_ == 1 || t_in_region) {
    // Serial fallback: serial pool or nested region. Runs inline with no
    // scheduling and no metrics — but still chunk by chunk:
    // parallel_reduce's determinism needs the same chunk boundaries
    // whether or not the pool scheduled the region.
    impl_->serial_regions.fetch_add(1, std::memory_order_relaxed);
    for (std::int64_t lo = begin; lo < end; lo += grain) {
      body(lo, std::min(end, lo + grain));
    }
    return;
  }

  Impl& im = *impl_;
  im.ensure_started();

  Impl::Region region(body);
  region.ntasks = (end - begin + grain - 1) / grain;
  region.remaining.store(region.ntasks, std::memory_order_relaxed);

  // Deal chunks round-robin across the lanes before waking anyone, so
  // every lane starts with local work and steals only to rebalance.
  for (std::int64_t c = 0; c < region.ntasks; ++c) {
    const std::int64_t lo = begin + c * grain;
    const std::int64_t hi = std::min(end, lo + grain);
    Impl::Lane& lane = *im.deques[static_cast<std::size_t>(
        c % static_cast<std::int64_t>(lanes_))];
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.q.push_back(Impl::Task{&region, lo, hi});
  }

  {
    std::lock_guard<std::mutex> lock(im.region_mu);
    ++im.epoch;
  }
  im.region_cv.notify_all();

  // The caller is lane 0 and drains alongside the workers; if none wake in
  // time it completes the whole region itself (it steals too).
  im.drain(0);
  {
    std::unique_lock<std::mutex> lock(im.done_mu);
    im.done_cv.wait(lock, [&] {
      return region.remaining.load(std::memory_order_acquire) == 0;
    });
  }

  im.regions.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t region_steals =
      region.steals.load(std::memory_order_relaxed);

  if (span.active()) {
    span.arg("tasks", region.ntasks);
    span.arg("steals", static_cast<std::int64_t>(region_steals));
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.add("pool.regions", 1.0);
  reg.add("pool.tasks", static_cast<double>(region.ntasks));
  reg.add("pool.steals", static_cast<double>(region_steals));

  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace pyhpc::util
