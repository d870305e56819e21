// Driver-as-a-service (ROADMAP item 1, DESIGN.md §10): one persistent
// hardened DriverContext serving many concurrent client sessions — the
// paper's millions-of-users scenario scaled down to threads. The pPython
// and Charm4Py server-runtime comparisons in PAPERS.md show control-plane
// batching and per-client scheduling dominating latency under concurrent
// load; this layer supplies both.
//
//  - Session multiplexing: ServiceContext owns the DriverContext and hands
//    out Session handles. Every control message carries the session id;
//    workers namespace array ids per session, so sessions cannot read or
//    clobber each other's arrays, and reduce replies travel on
//    session-tagged reply tags so one session's partials can never be
//    matched by another's collection loop.
//  - Admission control: each session has a bounded submit queue. On
//    overflow the policy is shed (QueueFullError, the op never queued) or
//    park (the submitting thread drains the backlog itself, then queues) —
//    either way a flooding session cannot starve the others, because
//    dispatch drains queues round-robin, kSessionQuantum messages per
//    session per turn.
//  - Coalescing: submissions buffer locally and ship as one sequenced
//    payload per worker when a size window (batch_messages) or time window
//    (batch_window) fills — the paper's "several messages can be buffered
//    and sent at once", applied across sessions automatically.
//
// Threading model: caller-runs dispatch. There is no service thread; one
// mutex serializes every entry point, and whichever client thread trips a
// flush executes the wire protocol itself. Client threads (on rank 0)
// block only on that mutex and on their own reduces — TSan-clean by
// construction, and the comm substrate is only ever touched by one thread
// at a time per rank.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "odin/driver.hpp"

namespace pyhpc::odin {

/// What a submit does when the session's queue is full.
enum class OverloadPolicy {
  /// Reject with QueueFullError; the op is never queued or executed.
  kShed,
  /// The submitting thread flushes the backlog itself (blocks for the wire
  /// round-trip), then queues. Completes eventually, sheds nothing.
  kPark,
};

struct ServiceOptions {
  /// Control-plane reliability policy for the owned DriverContext.
  DriverOptions driver;
  /// Bound on each session's local submit queue.
  std::size_t session_queue_limit = 256;
  OverloadPolicy overload = OverloadPolicy::kShed;
  /// Coalescing windows: a flush triggers when the total queued messages
  /// reach batch_messages, or when the oldest queued message has waited
  /// batch_window (checked at submit time — caller-runs, no timer thread).
  std::chrono::microseconds batch_window{200};
  std::size_t batch_messages = 64;
};

class ServiceContext;

/// Client handle for one session. Movable, not copyable; destruction
/// best-effort closes the session (errors swallowed — use close() to see
/// them). All methods are thread-safe across distinct sessions; a single
/// Session is meant for one client thread.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept
      : svc_(other.svc_), id_(other.id_) {
    other.svc_ = nullptr;
  }
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  bool valid() const { return svc_ != nullptr; }
  std::int32_t id() const { return id_; }

  int create_random(std::int64_t n, std::uint64_t seed);
  int create_full(std::int64_t n, double value);
  int unary(const std::string& ufunc, int a);
  int binary(const std::string& ufunc, int a, int b);
  int axpy(double alpha, int x, int y);
  int block_solve(int b);
  void free_array(int id);
  /// Synchronous: ships the reduce at the tail of one batch with this
  /// session's queue (and everything coalesced with it), then collects
  /// the partials on this session's reply tag.
  double reduce_sum(int a);
  /// Force the coalescing window closed now.
  void flush();
  /// Ship a kCloseSession at the tail of the flushed backlog (workers drop
  /// this session's segments) and invalidate the handle. Idempotent.
  void close();

 private:
  friend class ServiceContext;
  Session(ServiceContext* svc, std::int32_t id) : svc_(svc), id_(id) {}
  ServiceContext* svc_ = nullptr;
  std::int32_t id_ = 0;
};

/// The service: owns the hardened DriverContext, multiplexes sessions over
/// it. Construct on every rank (same options); rank 0 opens sessions,
/// ranks > 0 call worker_loop().
class ServiceContext {
 public:
  ServiceContext(comm::Communicator& comm, const ServiceOptions& options);

  bool is_driver() const { return driver_.is_driver(); }
  int num_workers() const { return driver_.num_workers(); }

  /// Workers: serve control messages until shutdown() ships.
  void worker_loop() { driver_.worker_loop(); }

  /// Driver side: open a new session (thread-safe).
  Session open_session();

  /// Flush every queue, then ship shutdown to the workers. Once the
  /// shutdown ships, surviving Session handles are invalid (their close is
  /// a no-op), also when it reports a dead worker.
  void shutdown();

  // ---- introspection (tests, bench assertions) --------------------------

  std::size_t open_sessions() const;
  /// Messages currently buffered across all session queues.
  std::size_t pending_messages() const;
  std::uint64_t messages_submitted() const;
  std::uint64_t batches_shipped() const;
  std::uint64_t sheds() const;
  std::uint64_t parks() const;
  const util::SetupCache& setup_cache() const { return driver_.setup_cache(); }
  DriverContext& driver() { return driver_; }

 private:
  friend class Session;

  struct SessionState {
    std::deque<ControlMessage> queue;
    std::int32_t next_array_id = 1;
    bool open = true;
  };

  // All private helpers require mu_ held.
  SessionState& state_locked(std::int32_t sid);
  void submit_locked(std::int32_t sid, ControlMessage msg);
  void maybe_flush_locked();
  /// Ships every queued message as one wire batch; a sync message (reduce
  /// or close) rides at its tail, past admission control.
  void flush_locked(const ControlMessage* sync = nullptr);

  // Session-facing entry points (each takes mu_).
  int op(std::int32_t sid, ControlMessage msg, bool fresh_result);
  double reduce(std::int32_t sid, int a);
  void flush_session(std::int32_t sid);
  void close_session(std::int32_t sid);

  /// Max messages drained from one session per round-robin turn.
  static constexpr std::size_t kSessionQuantum = 16;

  ServiceOptions opts_;
  DriverContext driver_;

  mutable std::mutex mu_;
  std::map<std::int32_t, SessionState> sessions_;
  std::int32_t next_session_ = 1;
  std::size_t queued_total_ = 0;
  std::size_t rr_cursor_ = 0;  // fairness: which session starts the drain
  std::chrono::steady_clock::time_point window_start_{};
  std::uint64_t submitted_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t parks_ = 0;
};

}  // namespace pyhpc::odin
