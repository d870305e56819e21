// Explicit driver/worker execution mode — the architecture of the paper's
// Figure 1: "The end user interacts with the ODIN Process, which determines
// what allocations and calculations to run on the worker nodes ... All
// array data is allocated and initialized on each node; the only
// communication from the top-level node is a short message, at most tens of
// bytes. For efficiency, several messages can be buffered and sent at once".
//
// Rank 0 is the ODIN process (driver); ranks 1..P-1 run worker_loop().
// Every operation is one fixed-size ControlMessage (48 bytes) per worker;
// batching queues messages and ships them as one payload. The SPMD global
// mode elsewhere in the library derives each op descriptor locally instead
// of shipping it — bench_fig1 measures the difference (including the
// driver-bottleneck effect the paper warns about).
//
// Reliability: control payloads carry an (epoch, sequence) pair. In
// reliable mode (DriverOptions) workers acknowledge each payload after
// executing it; the driver retries unacknowledged payloads (bounded), and
// workers deduplicate retransmissions/injected duplicates by sequence
// number *within the driver epoch* — payloads and acks from a different
// epoch (an earlier DriverContext over the same comm, e.g. before a
// shrink/recovery) are discarded instead of poisoning the fresh protocol
// state. A worker that dies (fault injection) surfaces as WorkerLostError
// naming the dead rank — reduce_sum and shutdown degrade gracefully
// instead of deadlocking. See DESIGN.md "Failure model and fault
// injection" and §10 for the service layer built on top of this class.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "util/error.hpp"
#include "util/setup_cache.hpp"

namespace pyhpc::odin {

/// Tags of the driver/worker control plane. These live in the reserved
/// internal p2p space (comm/message.hpp) so a service client's user-tag
/// traffic can never be matched by the control plane; they stay public so
/// fault-injection rules can target them.
inline constexpr int kControlTag = comm::kDriverControlTag;
inline constexpr int kAckTag = comm::kDriverAckTag;
/// Reduce replies are session-tagged: session s replies on
/// `kReplyTag + s % kDriverReplySpan`. Plain DriverContext use is
/// session 0, i.e. kReplyTag itself.
inline constexpr int kReplyTag = comm::kDriverReplyBase;

inline constexpr int reply_tag(std::int32_t session) {
  return comm::kDriverReplyBase +
         static_cast<int>(static_cast<std::uint32_t>(session) %
                          static_cast<std::uint32_t>(comm::kDriverReplySpan));
}

/// Fixed-size control message ("at most tens of bytes").
struct ControlMessage {
  enum class Op : std::int32_t {
    kCreateRandom = 1,
    kCreateFull = 2,
    kUnary = 3,
    kBinary = 4,
    kReduceSum = 5,
    kAxpy = 6,   // result = scalar * arg0 + arg1
    kFree = 7,
    kShutdown = 8,
    // Solve the local block's tridiag(-1, 2, -1) system T x = rhs with a
    // cached Thomas factorization (the service layer's repeated-structure
    // workload; DESIGN.md §10 "setup cache").
    kBlockSolve = 9,
    // Drop every segment owned by this message's session id.
    kCloseSession = 10,
  };

  Op op = Op::kShutdown;
  std::int32_t result_id = -1;
  std::int32_t arg0 = -1;
  std::int32_t arg1 = -1;
  /// Service session this message belongs to; array ids are namespaced
  /// per session on the workers. Plain DriverContext traffic is session 0.
  std::int32_t session = 0;
  std::int32_t reserved = 0;  // explicit padding: keep wire bytes defined
  std::int64_t n = 0;         // global element count for creations
  double scalar = 0.0;        // fill value / seed / axpy coefficient
  char name[8] = {0};         // ufunc name for kUnary/kBinary

  void set_name(const std::string& s) {
    require(s.size() < sizeof(name), "ControlMessage: ufunc name too long");
    std::memset(name, 0, sizeof(name));
    std::memcpy(name, s.data(), s.size());
  }
  std::string get_name() const {
    // name[] need not be NUL-terminated when exactly sizeof(name)-1 chars
    // long is violated by a corrupted payload; bound the scan explicitly.
    std::size_t len = 0;
    while (len < sizeof(name) && name[len] != '\0') ++len;
    return std::string(name, len);
  }
};
static_assert(sizeof(ControlMessage) <= 48,
              "control messages must stay at tens of bytes");

/// Wire frame of a payload acknowledgement: workers echo the epoch they
/// executed under so a stale ack (from a previous DriverContext over the
/// same comm) can never satisfy the new driver's retry loop.
struct AckFrame {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};
static_assert(sizeof(AckFrame) == 16, "AckFrame is two u64s on the wire");

/// Reliability policy for the control plane.
struct DriverOptions {
  /// Acks + bounded retransmission + duplicate suppression. The legacy
  /// DriverContext(comm) constructor turns this off (fire-and-forget, the
  /// paper's minimal protocol).
  bool reliable = true;
  /// How long the driver waits for a payload ack before retransmitting.
  std::chrono::milliseconds ack_timeout{250};
  /// Retransmissions per payload before giving up with CommError.
  int max_retries = 8;
  /// Deadline for a worker's reduce partial (covers compute time).
  std::chrono::milliseconds reply_timeout{5000};
  /// Sequence-number namespace. Every DriverContext generation over the
  /// same comm must use a distinct epoch (all ranks equal); workers
  /// discard payloads from other epochs instead of mis-deduplicating them.
  std::uint64_t epoch = 0;
  /// Capacity of the per-worker setup cache (kBlockSolve factorizations).
  std::size_t setup_cache_capacity = 32;
};

/// Driver-side API (valid on rank 0) plus the worker loop (ranks > 0).
class DriverContext {
 public:
  /// Legacy fire-and-forget control plane (no acks, no retries).
  explicit DriverContext(comm::Communicator& comm);
  /// Hardened control plane; all ranks must construct with equal options.
  DriverContext(comm::Communicator& comm, const DriverOptions& options);

  bool is_driver() const { return comm_->rank() == 0; }
  int num_workers() const { return comm_->size() - 1; }

  /// Workers block here executing control messages until kShutdown.
  /// Corrupted payloads (CommIntegrityError) are discarded like a NIC
  /// dropping a bad-CRC frame; in reliable mode the missing ack makes the
  /// driver retransmit. A control message whose execution fails (bad
  /// array id, unknown ufunc — e.g. one misbehaving service session) is
  /// contained: the error is counted (`driver.worker_op_errors`), a failed
  /// reduce replies NaN so the driver never hangs, and the loop keeps
  /// serving other sessions.
  void worker_loop();

  // ---- driver-side operations (each ships one message per worker) -------

  /// New distributed array of n uniform [0,1) values; returns its id.
  int create_random(std::int64_t n, std::uint64_t seed);
  int create_full(std::int64_t n, double value);
  int unary(const std::string& ufunc, int a);
  int binary(const std::string& ufunc, int a, int b);
  int axpy(double alpha, int x, int y);
  /// result = per-worker-block tridiagonal solve of T x = b (cached setup).
  int block_solve(int b);
  void free_array(int id);
  /// Sum-reduce: workers reply with partials the driver folds. In batching
  /// mode it flushes the batch with the reduce at its tail. Raises
  /// WorkerLostError naming the rank when a worker has died.
  double reduce_sum(int a);
  /// Delivers shutdown to every live worker, then raises WorkerLostError
  /// (naming the first dead rank) if any worker died along the way.
  void shutdown();

  // ---- message batching (the paper's buffering optimization) ------------

  /// Between begin_batch and flush_batch, messages queue locally and ship
  /// as one payload per worker at flush. A reduce_sum ends the batch: it
  /// ships at the batch's tail in that same payload. shutdown flushes the
  /// batch, then ships its own payload.
  /// Prefer BatchGuard (below): these raw calls are not exception-safe on
  /// their own — a throw between them used to leave posted messages
  /// buffered forever, shipping out of order with later traffic.
  void begin_batch();
  void flush_batch();
  /// Leave batching mode and drop everything queued since begin_batch
  /// (the unwind path of BatchGuard).
  void discard_batch();
  bool batching() const { return batching_; }

  // ---- service-layer entry points (DESIGN.md §10) -----------------------

  /// Ship a caller-assembled batch as one sequenced payload per worker
  /// (empty batch = no-op, no sequence number consumed). The ServiceContext
  /// coalescing window drains per-session queues through this.
  void ship_batch(const std::vector<ControlMessage>& batch);
  /// Collect one reduce partial per worker on `session`'s reply tag and
  /// fold them. The matching kReduceSum message must already be shipped.
  double collect_reduce(std::int32_t session);

  /// Driver-side count of control messages and bytes shipped (for F1).
  /// Counts logical ControlMessage traffic; retransmissions count again,
  /// the 16-byte epoch/sequence framing does not.
  std::uint64_t control_messages_sent() const { return messages_; }
  std::uint64_t control_bytes_sent() const { return bytes_; }
  std::uint64_t payloads_sent() const { return payloads_; }

  /// Worker-side setup cache (kBlockSolve factorizations); driver side
  /// stays empty. Exposed for tests and cache-hit-rate assertions.
  const util::SetupCache& setup_cache() const { return *setup_cache_; }

 private:
  void post(const ControlMessage& msg);
  void send_payload(int worker, const std::vector<ControlMessage>& batch,
                    std::uint64_t seq);
  void await_ack_or_retry(int worker,
                          const std::vector<ControlMessage>& batch,
                          std::uint64_t seq);
  [[noreturn]] void raise_worker_lost(int worker, const char* during) const;
  int fresh_id() { return next_id_++; }

  // Worker-side helpers.
  void execute(const ControlMessage& msg, bool& running);
  std::vector<double>& segment(std::int32_t session, std::int32_t id);
  const std::vector<double>& segment_at(std::int32_t session,
                                        std::int32_t id) const;
  std::int64_t local_count(std::int64_t n) const;
  std::int64_t local_offset(std::int64_t n) const;

  comm::Communicator* comm_;
  DriverOptions opts_;
  int next_id_ = 1;
  bool batching_ = false;
  std::vector<ControlMessage> queue_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t payloads_ = 0;
  std::uint64_t seq_ = 0;       // driver: last payload sequence issued
  std::uint64_t last_seq_ = 0;  // worker: last payload sequence executed
  // Worker-side storage: (session id << 32 | array id) -> local segment,
  // so service sessions can never read or clobber each other's arrays.
  std::map<std::uint64_t, std::vector<double>> segments_;
  // Worker-side cache of kBlockSolve Thomas factorizations, keyed on the
  // local block size (the problem *structure*). Shared across sessions by
  // design: factorizations are value-independent.
  std::unique_ptr<util::SetupCache> setup_cache_;
};

/// RAII wrapper for begin_batch/flush_batch: `flush()` ships the batch;
/// destruction without a flush (an exception unwinding through the batch)
/// *discards* the queued messages instead of leaving them buffered to ship
/// out of order with later, unrelated traffic.
class BatchGuard {
 public:
  explicit BatchGuard(DriverContext& ctx) : ctx_(&ctx) { ctx_->begin_batch(); }
  BatchGuard(const BatchGuard&) = delete;
  BatchGuard& operator=(const BatchGuard&) = delete;
  ~BatchGuard() {
    if (!flushed_) ctx_->discard_batch();
  }
  /// Ship everything queued since construction; idempotent.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    ctx_->flush_batch();
  }

 private:
  DriverContext* ctx_;
  bool flushed_ = false;
};

}  // namespace pyhpc::odin
