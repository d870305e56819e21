// Per-world communication settings: the receive deadline, the deadlock
// watchdog's sampling period, the intra-rank pool width and an optional
// fault injector. Passed to comm::run (and held by the Context), so every
// Communicator of the world sees the same settings. Collective schedules
// are chosen per call (CollectiveAlgo), not here.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

namespace pyhpc::comm {

class FaultInjector;

/// Which schedule a collective runs on. `kAuto` picks one from the
/// per-rank payload size (DESIGN.md §2.1); any other value forces that
/// schedule for one call. Every rank of a collective must pass the same
/// value — selection is part of the matched schedule, exactly like the
/// payload size.
enum class CollectiveAlgo : std::uint8_t {
  kAuto = 0,
  /// Root-funneled reference schedules (reduce+broadcast allreduce,
  /// rank-ordered loops at the root). Kept selectable as the baseline the
  /// benches compare against and as a debugging fallback.
  kLinear,
  kRecursiveDoubling,  ///< allreduce, short messages: log2(p) full-vector rounds
  kRabenseifner,       ///< allreduce, long messages: reduce-scatter + allgather
  kRing,               ///< allgather(v), long messages: p-1 neighbour rounds
  kBruck,              ///< allgather, short messages: ceil(log2 p) doubling rounds
  kBinomial,           ///< broadcast/reduce/scatter/gather: log2(p)-deep tree
};

const char* collective_algo_name(CollectiveAlgo algo);

struct CommConfig {
  /// Default deadline for blocking recv/probe; zero means wait forever
  /// (the pre-resilience behaviour). Individual calls can override it with
  /// the *_within variants.
  std::chrono::milliseconds recv_timeout{0};

  /// Sampling period of the deadlock watchdog the runner starts for every
  /// world of two or more ranks: it aborts the world with a who-waits-on-
  /// whom DeadlockError once every live rank is blocked without a deadline
  /// and nothing is in flight. A deadlock must be stable across two
  /// consecutive samples before it is declared (rules out races).
  std::chrono::milliseconds watchdog_poll{250};

  /// Intra-rank parallelism: lanes of each rank thread's util::TaskPool
  /// (the work-stealing pool under ufuncs, fused expressions, reductions,
  /// SpMV, and relaxation sweeps). 0 (default) defers to the PYHPC_THREADS
  /// environment variable, which itself defaults to 1 (serial). comm::run
  /// installs this per rank thread via TaskPool::set_thread_default.
  int threads = 0;

  /// Deterministic fault injection applied inside Context::deliver; null
  /// means no injection. Not inherited by split() children: rules address
  /// ranks of the context they are installed in.
  std::shared_ptr<FaultInjector> injector;
};

}  // namespace pyhpc::comm
