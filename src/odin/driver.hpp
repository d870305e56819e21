// Explicit driver/worker execution mode — the architecture of the paper's
// Figure 1: "The end user interacts with the ODIN Process, which determines
// what allocations and calculations to run on the worker nodes ... All
// array data is allocated and initialized on each node; the only
// communication from the top-level node is a short message, at most tens of
// bytes. For efficiency, several messages can be buffered and sent at once".
//
// Rank 0 is the ODIN process (driver); ranks 1..P-1 run worker_loop().
// Every operation is one fixed-size ControlMessage (48 bytes) per worker,
// and a payload carries a batch of them. This class is only the wire
// protocol: clients issue operations through odin::Session, whose
// ServiceContext (service.hpp) buffers them and ships each batch here. The
// SPMD global mode elsewhere in the library derives each op descriptor
// locally instead of shipping it — bench_fig1 measures the difference
// (including the driver-bottleneck effect the paper warns about).
//
// Reliability: control payloads carry an (epoch, sequence) pair. Workers
// acknowledge each payload after executing it; the driver retries
// unacknowledged payloads (bounded), and workers deduplicate
// retransmissions/injected duplicates by sequence number *within the
// driver epoch* — payloads and acks from a different epoch (an earlier
// DriverContext over the same comm, e.g. before a shrink/recovery) are
// discarded instead of poisoning the fresh protocol state. A worker that
// dies (fault injection) surfaces as WorkerLostError naming the dead rank —
// reduces and shutdown degrade gracefully instead of deadlocking. See
// DESIGN.md "Failure model and fault injection" and §10 for the service
// layer built on top of this class.
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
/// `kReplyTag + s % kDriverReplySpan`.
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
  /// per session on the workers.
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

/// The acked control-plane wire protocol: ship_batch/collect_reduce/
/// shutdown on the driver (rank 0), worker_loop on ranks > 0. All ranks
/// must construct it with equal options.
class DriverContext {
 public:
  DriverContext(comm::Communicator& comm, const DriverOptions& options);

  bool is_driver() const { return comm_->rank() == 0; }
  int num_workers() const { return comm_->size() - 1; }

  /// Workers block here executing control messages until kShutdown.
  /// Corrupted payloads (CommIntegrityError) are discarded like a NIC
  /// dropping a bad-CRC frame; the missing ack makes the driver
  /// retransmit. A control message whose execution fails (bad array id,
  /// unknown ufunc — e.g. one misbehaving service session) is contained:
  /// the error is counted (`driver.worker_op_errors`), a failed reduce
  /// replies NaN so the driver never hangs, and the loop keeps serving
  /// other sessions.
  void worker_loop();

  /// Ship a batch as one sequenced payload per worker and wait for every
  /// live worker's ack (empty batch = no-op, no sequence number consumed).
  /// A dead worker does not stop the payload reaching the live ones: the
  /// WorkerLostError naming the first dead rank is raised after the acks.
  void ship_batch(const std::vector<ControlMessage>& batch);
  /// Collect one reduce partial per worker on `session`'s reply tag and
  /// fold them. The matching kReduceSum message must already be shipped.
  /// Raises WorkerLostError naming the rank when a worker has died.
  double collect_reduce(std::int32_t session);
  /// Ships kShutdown as a payload of its own: it reaches every live
  /// worker, then raises WorkerLostError if any worker died along the way.
  void shutdown();

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
  void send_payload(int worker, const std::vector<ControlMessage>& batch,
                    std::uint64_t seq);
  void await_ack_or_retry(int worker,
                          const std::vector<ControlMessage>& batch,
                          std::uint64_t seq);
  [[noreturn]] void raise_worker_lost(int worker, const char* during) const;

  // Worker-side helpers.
  void execute(const ControlMessage& msg, bool& running);
  std::vector<double>& segment(std::int32_t session, std::int32_t id);
  const std::vector<double>& segment_at(std::int32_t session,
                                        std::int32_t id) const;
  std::int64_t local_count(std::int64_t n) const;

  comm::Communicator* comm_;
  DriverOptions opts_;
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

}  // namespace pyhpc::odin
