// Per-world communication policy: receive deadlines, the deadlock
// watchdog, collective algorithm selection, and an optional fault
// injector. Passed to comm::run (and held by the Context), so every
// Communicator of the world sees the same policy.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace pyhpc::comm {

class FaultInjector;

/// Which schedule a collective runs on. `kAuto` resolves through the
/// world's CollectivePolicy (forced algorithm if set, otherwise the size
/// thresholds); any other value forces that schedule for one call. Every
/// rank of a collective must pass the same value — selection is part of
/// the matched schedule, exactly like the payload size.
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
  kBinomial,           ///< scatter/gather: log2(p)-deep tree
  kPairwise,           ///< alltoall(v): p-1 balanced exchange rounds
};

const char* collective_algo_name(CollectiveAlgo algo);

/// Per-world collective algorithm selection. A forced per-operation value
/// overrides the size thresholds; CollectiveAlgo::kAuto keeps the
/// threshold-driven default. Thresholds compare the per-rank payload in
/// bytes (identical on every rank for the operations they govern, so all
/// ranks resolve the same schedule).
struct CollectivePolicy {
  CollectiveAlgo allreduce = CollectiveAlgo::kAuto;  ///< kLinear | kRecursiveDoubling | kRabenseifner
  CollectiveAlgo allgather = CollectiveAlgo::kAuto;  ///< kLinear | kBruck | kRing
  CollectiveAlgo gather = CollectiveAlgo::kAuto;     ///< kLinear | kBinomial
  CollectiveAlgo scatter = CollectiveAlgo::kAuto;    ///< kLinear | kBinomial
  /// kLinear | kPairwise. Governs alltoall and the copying alltoallv; the
  /// zero-copy alltoallv(std::vector<std::vector<T>>&&), under tpetra
  /// Import/Export and odin::redistribute, always runs the linear schedule.
  CollectiveAlgo alltoall = CollectiveAlgo::kAuto;

  /// allreduce payloads >= this many bytes use Rabenseifner
  /// (reduce-scatter + allgather, 2n bytes per rank); smaller ones use
  /// recursive doubling (log2(p) rounds of the full vector).
  std::size_t allreduce_long_bytes = 4096;
  /// allgather per-rank contributions >= this many bytes use the ring;
  /// smaller ones use Bruck's log-round schedule.
  std::size_t allgather_long_bytes = 4096;
};

struct CommConfig {
  /// Default deadline for blocking recv/probe; zero means wait forever
  /// (the pre-resilience behaviour). Individual calls can override it with
  /// the *_within variants.
  std::chrono::milliseconds recv_timeout{0};

  /// When true (default) the runner starts a watchdog thread that aborts
  /// the world with a who-waits-on-whom DeadlockError once every live rank
  /// is blocked without a deadline and nothing is in flight — so a wedged
  /// test fails with a diagnostic instead of hanging ctest.
  bool watchdog = true;

  /// Watchdog sampling period. A deadlock must be stable across two
  /// consecutive samples before it is declared (rules out races).
  std::chrono::milliseconds watchdog_poll{250};

  /// Collective algorithm selection (forced schedules and the size
  /// thresholds kAuto resolves through). Inherited by split() children.
  CollectivePolicy coll;

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

  /// Transport-tier switch point: isend payloads at or below this many
  /// bytes are copied eagerly (the future completes immediately); larger
  /// ones hand off by rendezvous — the envelope aliases the caller's
  /// memory and the SendFuture completes only when the receiver has let
  /// go of it. Blocking sends always stay eager regardless of size (the
  /// collectives' deadlock-freedom depends on sends never blocking).
  std::size_t eager_threshold = 8192;

  /// Pooled-buffer arena geometry for small eager copies: block size in
  /// bytes and the maximum number of free blocks kept for reuse. Payloads
  /// larger than one block fall through to heap storage.
  std::size_t arena_block_bytes = 8192;
  std::size_t arena_max_blocks = 64;
};

}  // namespace pyhpc::comm
