#include "comm/runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/context.hpp"
#include "obs/bridge.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/task_pool.hpp"

namespace pyhpc::comm {

namespace {

// Lets the runner stop the watchdog promptly instead of waiting out a poll.
struct WatchdogControl {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;

  void request_stop() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
  }

  // Returns true when asked to stop.
  bool sleep(std::chrono::milliseconds period) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, period, [this] { return stop; });
  }
};

std::string describe_source(int source) {
  return source == kAnySource ? std::string("any") : std::to_string(source);
}
std::string describe_tag(int tag) {
  return tag == kAnyTag ? std::string("any") : std::to_string(tag);
}

std::string build_deadlock_report(const Context& ctx,
                                  const std::vector<Mailbox::WaitInfo>& info) {
  const int n = static_cast<int>(info.size());
  int live = 0;
  for (int r = 0; r < n; ++r) {
    if (!ctx.is_done(r)) ++live;
  }
  std::string report = util::cat(
      "deadlock detected: all ", live,
      " live ranks blocked with no matching messages in flight\n");
  for (int r = 0; r < n; ++r) {
    if (ctx.is_done(r)) {
      report += util::cat("  rank ", r,
                          ctx.is_killed(r) ? ": died (fault injection)\n"
                                           : ": finished\n");
    } else {
      report += util::cat("  rank ", r, " waits on (source ",
                          describe_source(info[static_cast<std::size_t>(r)].source),
                          ", tag ",
                          describe_tag(info[static_cast<std::size_t>(r)].tag),
                          ")\n");
    }
  }
  return report;
}

// Deadlock criterion: every not-done rank is blocked in a recv/probe with
// no deadline, no blocked rank has a matching message queued, and the
// whole picture is identical across two consecutive samples (wait epochs
// included — a rank that woke and re-blocked in between changes its
// epoch). Only ranks can send, so if all of them are blocked and nothing
// matches, no progress is possible: report and abort.
void watchdog_loop(const std::shared_ptr<Context>& ctx,
                   WatchdogControl& control) {
  const auto poll = std::max<std::chrono::milliseconds>(
      ctx->config().watchdog_poll, std::chrono::milliseconds(10));
  const int n = ctx->size();
  std::vector<Mailbox::WaitInfo> prev;
  bool prev_blocked = false;
  for (;;) {
    if (control.sleep(poll)) return;
    if (ctx->abort_flag().load(std::memory_order_relaxed)) return;

    std::vector<Mailbox::WaitInfo> cur(static_cast<std::size_t>(n));
    bool all_blocked = true;
    int live = 0;
    for (int r = 0; r < n && all_blocked; ++r) {
      if (ctx->is_done(r)) continue;
      ++live;
      cur[static_cast<std::size_t>(r)] = ctx->mailbox(r).wait_info();
      const auto& w = cur[static_cast<std::size_t>(r)];
      // A waiter with a deadline unblocks itself; don't call it deadlock.
      if (!w.waiting || w.has_deadline) all_blocked = false;
    }
    if (live == 0) return;
    if (all_blocked) {
      for (int r = 0; r < n && all_blocked; ++r) {
        if (ctx->is_done(r)) continue;
        const auto& w = cur[static_cast<std::size_t>(r)];
        if (ctx->mailbox(r).try_probe(w.source, w.tag).has_value()) {
          all_blocked = false;  // a match is queued; the rank will wake
        }
      }
    }
    if (all_blocked && prev_blocked && prev.size() == cur.size()) {
      bool stable = true;
      for (int r = 0; r < n && stable; ++r) {
        if (ctx->is_done(r)) continue;
        const auto& a = prev[static_cast<std::size_t>(r)];
        const auto& b = cur[static_cast<std::size_t>(r)];
        if (!a.waiting || a.epoch != b.epoch) stable = false;
      }
      if (stable) {
        ctx->fail_deadlock(build_deadlock_report(*ctx, cur));
        return;
      }
    }
    prev = std::move(cur);
    prev_blocked = all_blocked;
  }
}

CommStats run_impl(int nranks, const CommConfig& config,
                   const std::function<void(Communicator&)>& fn) {
  require(nranks >= 1, "comm::run: need at least one rank");

  auto ctx = std::make_shared<Context>(nranks, config);
  std::mutex error_mu;
  std::exception_ptr first_error;
  int first_error_rank = -1;

  auto record_failure = [&](int rank) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      // Prefer the lowest-ranked *root cause*: aborted-wait CommErrors are
      // secondary failures, so only record one if nothing else arrived.
      if (!first_error || first_error_rank > rank) {
        if (!ctx->abort_flag().load() || !first_error) {
          first_error = std::current_exception();
          first_error_rank = rank;
        }
      }
    }
    ctx->abort();
  };

  auto body = [&](int rank) {
    // Tag this thread's trace events with its rank index (the trace `tid`).
    // Rank 0 runs on the calling thread, whose tag is restored below.
    obs::set_thread_rank(rank);
    // Size this rank's intra-rank task pool (0 defers to PYHPC_THREADS).
    // Saved/restored because rank 0 shares the calling thread.
    const int saved_threads = util::TaskPool::thread_default();
    util::TaskPool::set_thread_default(config.threads);
    try {
      Communicator comm(ctx, rank);
      fn(comm);
    } catch (const PeerKilledError&) {
      // A *survivor* noticed a peer die and nothing recovered from it.
      // That is a real error on this rank, not a contained crash — and it
      // must be caught before RankKilledError (its base class) or the
      // containment below would swallow it and the run would "pass".
      record_failure(rank);
    } catch (const RankKilledError&) {
      // Simulated crash of this rank alone: it vanishes, the world keeps
      // running. Drivers observe the death via Communicator::rank_dead.
    } catch (...) {
      record_failure(rank);
    }
    util::TaskPool::set_thread_default(saved_threads);
    ctx->mark_done(rank);
  };

  WatchdogControl watchdog_control;
  std::thread watchdog;
  if (nranks >= 2) {
    watchdog = std::thread(watchdog_loop, ctx, std::ref(watchdog_control));
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 1; r < nranks; ++r) threads.emplace_back(body, r);
  body(0);  // rank 0 runs on the calling thread
  for (auto& t : threads) t.join();

  if (watchdog.joinable()) {
    watchdog_control.request_stop();
    watchdog.join();
  }

  obs::set_thread_rank(0);  // calling thread doubled as rank 0 above

  // Fold mailbox occupancy high-water marks into the per-rank stats now
  // that no rank is running.
  for (int r = 0; r < nranks; ++r) {
    auto& s = ctx->stats(r);
    s.mailbox_highwater_bytes = std::max<std::uint64_t>(
        s.mailbox_highwater_bytes, ctx->mailbox(r).highwater_bytes());
  }

  // Publish this run into the unified metrics registry: aggregated comm
  // counters, injected-fault totals, and the worst queue depth any rank saw.
  {
    auto& reg = obs::MetricsRegistry::global();
    CommStats agg;
    std::uint64_t depth = 0;
    for (int r = 0; r < nranks; ++r) {
      agg += ctx->stats(r);
      depth = std::max<std::uint64_t>(depth, ctx->mailbox(r).highwater_messages());
    }
    obs::import_comm_stats(reg, agg);
    reg.set_max("comm.mailbox_highwater_messages", static_cast<double>(depth));
    if (config.injector) {
      obs::import_fault_counts(reg, config.injector->counts());
      // Replay handle: re-running with this seed reproduces the schedule.
      reg.set("faults.seed", static_cast<double>(config.injector->seed()));
    }
  }

  if (first_error) std::rethrow_exception(first_error);

  CommStats total;
  for (int r = 0; r < nranks; ++r) total += ctx->stats(r);
  return total;
}

}  // namespace

void run(int nranks, const std::function<void(Communicator&)>& fn) {
  (void)run_impl(nranks, CommConfig{}, fn);
}

void run(int nranks, const CommConfig& config,
         const std::function<void(Communicator&)>& fn) {
  (void)run_impl(nranks, config, fn);
}

CommStats run_with_stats(int nranks,
                         const std::function<void(Communicator&)>& fn) {
  return run_impl(nranks, CommConfig{}, fn);
}

CommStats run_with_stats(int nranks, const CommConfig& config,
                         const std::function<void(Communicator&)>& fn) {
  return run_impl(nranks, config, fn);
}

}  // namespace pyhpc::comm
