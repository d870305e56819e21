// Communicator: the per-rank handle to a message-passing world.
//
// Semantics follow MPI (see the LLNL MPI model this substrate reproduces):
//  - two-sided, tag + source matched point-to-point messages;
//  - non-overtaking delivery for a fixed (source, dest) pair;
//  - collectives must be entered by every rank of the communicator in the
//    same program order (they are sequenced with an internal tag space);
//  - sends are always eager/buffered, so a send never deadlocks.
//
// All typed operations require trivially-copyable element types; richer
// payloads (strings, record batches) use the byte/string interfaces or the
// serialization helpers in odin/seamless.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/context.hpp"
#include "comm/message.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::comm {

class Communicator;

/// Handle to a posted non-blocking receive. Because sends are eager, isend
/// completes immediately and needs no handle; PendingRecv is the one
/// genuinely asynchronous operation.
///
/// A message captured by ready() is owned by the handle; receive stats are
/// counted at capture time. Destroying a handle that still owns an
/// unconsumed message re-queues it at the front of the mailbox (and backs
/// the capture out of the stats), so the message is never silently lost —
/// a later matching receive observes it exactly as if the handle had never
/// existed.
class PendingRecv {
 public:
  PendingRecv(Communicator* comm, int source, int tag)
      : comm_(comm), source_(source), tag_(tag) {}
  ~PendingRecv();

  PendingRecv(const PendingRecv&) = delete;
  PendingRecv& operator=(const PendingRecv&) = delete;
  PendingRecv(PendingRecv&& other) noexcept
      : comm_(other.comm_),
        source_(other.source_),
        tag_(other.tag_),
        captured_(std::move(other.captured_)),
        consumed_(other.consumed_) {
    other.captured_.reset();
    other.consumed_ = true;
  }
  PendingRecv& operator=(PendingRecv&&) = delete;

  /// Non-blocking: true once the matching message has arrived (and has been
  /// captured into this handle).
  bool ready();

  /// Blocks until the message arrives and returns it. May be called once.
  Envelope wait();

  /// Decodes a waited envelope into typed elements.
  template <class T>
  static std::vector<T> decode(const Envelope& env) {
    static_assert(std::is_trivially_copyable_v<T>);
    require<CommError>(env.payload.size() % sizeof(T) == 0,
                       "PendingRecv::decode: payload size not a multiple of "
                       "element size");
    std::vector<T> out(env.payload.size() / sizeof(T));
    // An empty payload has a null data() pointer, and memcpy with a null
    // source is UB even for size 0 — guard like recv_string does.
    if (!env.payload.empty()) {
      std::memcpy(out.data(), env.payload.data(), env.payload.size());
    }
    return out;
  }

  /// Consuming decode: when the payload is an adopted std::vector<T> that
  /// this envelope solely owns (the zero-copy move-send fast path), the
  /// vector is moved straight out — no copy end to end. Falls back to the
  /// copying decode otherwise.
  template <class T>
  static std::vector<T> take(Envelope&& env) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (auto v = env.payload.take_vector<T>()) return std::move(*v);
    return decode<T>(env);
  }

 private:
  Communicator* comm_;
  int source_;
  int tag_;
  std::optional<Envelope> captured_;
  bool consumed_ = false;
};

/// Handle to a non-blocking send. Eager sends (payload at or below
/// CommConfig::eager_threshold) complete at post time and return an
/// already-ready future. Rendezvous sends alias the caller's memory: the
/// future completes only when every envelope referencing it has been
/// consumed (received, dropped by fault injection, or replaced by a
/// corruption clone) — MPI send-completion semantics: ready() means "the
/// buffer is yours to reuse". Under duplicate injection both copies must
/// be drained before the future completes.
class SendFuture {
 public:
  SendFuture() = default;  // eager send: nothing outstanding

  bool ready() const { return !state_ || state_->released(); }

  /// Blocks until the buffer is released. Polls the world's failure flags
  /// so an abort, revocation, or the caller's own fault-injected death
  /// surfaces as the matching error instead of a hang.
  void wait() {
    if (!state_) return;
    while (!state_->wait_for(std::chrono::milliseconds(25))) {
      if (ctx_->is_killed(rank_)) {
        throw RankKilledError(
            "SendFuture::wait on a killed rank (fault injection)");
      }
      if (ctx_->abort_flag().load(std::memory_order_relaxed)) {
        throw CommError("SendFuture::wait aborted: another rank failed");
      }
    }
  }

 private:
  friend class Communicator;
  SendFuture(std::shared_ptr<RendezvousState> state,
             std::shared_ptr<Context> ctx, int rank)
      : state_(std::move(state)), ctx_(std::move(ctx)), rank_(rank) {}

  std::shared_ptr<RendezvousState> state_;
  std::shared_ptr<Context> ctx_;
  int rank_ = -1;
};

/// Completion state shared between a non-blocking collective's state
/// machine (owned by the communicator's progress list) and the CollFuture
/// the caller holds.
struct NbCollState {
  std::atomic<bool> done{false};
};

/// Handle to a non-blocking collective (ibarrier/iallreduce). The
/// operation only advances inside Communicator::progress(), GHEX-style;
/// wait() drives progress() until completion and honours the configured
/// receive deadline.
class CollFuture {
 public:
  CollFuture() = default;
  bool ready() const {
    return !state_ || state_->done.load(std::memory_order_acquire);
  }
  void wait();  // defined after Communicator (drives progress())

 private:
  friend class Communicator;
  CollFuture(std::shared_ptr<NbCollState> state, Communicator* comm)
      : state_(std::move(state)), comm_(comm) {}
  std::shared_ptr<NbCollState> state_;
  Communicator* comm_ = nullptr;
};

class Communicator {
 public:
  Communicator(std::shared_ptr<Context> ctx, int rank)
      : ctx_(std::move(ctx)), rank_(rank) {
    require<CommError>(rank_ >= 0 && rank_ < ctx_->size(),
                       "Communicator: rank out of range");
  }

  // Copies share the world but not the posted non-blocking operations:
  // those belong to the handle that posted them (its progress() loop is
  // the only driver holding their futures).
  Communicator(const Communicator& other)
      : ctx_(other.ctx_),
        rank_(other.rank_),
        seq_(other.seq_),
        coll_deadline_(other.coll_deadline_) {}
  Communicator& operator=(const Communicator& other) {
    ctx_ = other.ctx_;
    rank_ = other.rank_;
    seq_ = other.seq_;
    coll_deadline_ = other.coll_deadline_;
    posted_.clear();
    return *this;
  }
  Communicator(Communicator&&) = default;
  Communicator& operator=(Communicator&&) = default;

  int rank() const { return rank_; }
  int size() const { return ctx_->size(); }

  CommStats& stats() { return ctx_->stats(rank_); }
  const CommStats& stats() const { return ctx_->stats(rank_); }

  /// Sums every rank's counters (call after the parallel region ends, or
  /// from a barrier-synchronized point).
  CommStats aggregate_stats() const {
    CommStats total;
    for (int r = 0; r < size(); ++r) total += ctx_->stats(r);
    return total;
  }

  // ---- point-to-point: bytes ------------------------------------------

  void send_bytes(std::span<const std::byte> data, int dest, int tag) {
    check_user_tag(tag);
    send_bytes_internal(data, dest, tag, /*internal=*/false);
  }

  /// Blocking receive into a freshly sized vector.
  Status recv_bytes(std::vector<std::byte>& out, int source = kAnySource,
                    int tag = kAnyTag) {
    Envelope env = pop(source, tag);
    Status st{env.source, env.tag, env.payload.size()};
    out = env.payload.take_bytes();
    auto& s = stats();
    ++s.p2p_messages_received;
    s.p2p_bytes_received += st.bytes;
    return st;
  }

  /// Blocking probe: metadata of the next matching message. Honours the
  /// CommConfig receive deadline (RecvTimeoutError past it).
  Status probe(int source = kAnySource, int tag = kAnyTag) {
    try {
      return ctx_->mailbox(rank_).probe(source, tag, wait_options());
    } catch (const RecvTimeoutError&) {
      ++stats().timeouts;
      throw;
    } catch (const RankKilledError&) {
      throw;
    } catch (const CommError&) {
      rethrow_refined();
    }
  }

  /// Non-blocking probe. Same failure semantics as probe(): a killed or
  /// revoked caller throws instead of polling forever, an aborted world
  /// surfaces the refined error (DeadlockError when the watchdog fired),
  /// and a specific dead peer with nothing queued throws PeerKilledError —
  /// previously iprobe bypassed all of this and returned nullopt, so a
  /// poll loop over a dead peer spun until the watchdog killed the world.
  std::optional<Status> iprobe(int source = kAnySource, int tag = kAnyTag) {
    if (ctx_->is_killed(rank_)) {
      throw RankKilledError("iprobe on a killed rank (fault injection)");
    }
    if (ctx_->is_revoked()) {
      throw RevokedError("iprobe on a revoked communicator");
    }
    // Match first: a message the peer sent before dying is still
    // deliverable, exactly like the blocking probe's mailbox scan.
    auto st = ctx_->mailbox(rank_).try_probe(source, tag);
    if (st.has_value()) return st;
    if (source != kAnySource && source != rank_ && ctx_->is_killed(source)) {
      throw PeerKilledError(
          source, util::cat("iprobe: peer rank ", source,
                            " was killed (fault injection)"));
    }
    if (ctx_->abort_flag().load(std::memory_order_relaxed)) {
      if (ctx_->deadlocked()) throw DeadlockError(ctx_->deadlock_report());
      throw CommError("iprobe aborted: another rank failed");
    }
    return std::nullopt;
  }

  // ---- point-to-point: typed ------------------------------------------

  template <class T>
  void send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(data), dest, tag);
  }

  /// Zero-copy send: adopts the vector's storage into the envelope instead
  /// of copying it. A recv_vector<T> on the other side moves the same
  /// storage back out, so large transfers cost no payload copy at all
  /// (CommStats::zero_copy_bytes counts them; bytes_copied stays flat).
  template <class T>
  void send(std::vector<T>&& data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_user_tag(tag);
    send_buffer(Buffer::adopt(std::move(data)), dest, tag,
                /*internal=*/false);
  }

  template <class T>
  void send_value(const T& value, int dest, int tag) {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  /// Strict receive: the incoming message must contain exactly buf.size()
  /// elements; a mismatch is a CommError (catches size bugs early — the
  /// failure-injection tests rely on this).
  template <class T>
  Status recv(std::span<T> buf, int source = kAnySource, int tag = kAnyTag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = pop(source, tag);
    auto& s = stats();
    ++s.p2p_messages_received;
    s.p2p_bytes_received += env.payload.size();
    require<CommError>(
        env.payload.size() == buf.size_bytes(),
        "recv: message of ", env.payload.size(),
        " bytes does not match buffer of ", buf.size_bytes(),
        " bytes (source ", env.source, ", tag ", env.tag, ")");
    // Empty payloads carry a null data() pointer; memcpy from (nullptr, 0)
    // is UB, so guard like recv_string does.
    if (!env.payload.empty()) {
      std::memcpy(buf.data(), env.payload.data(), env.payload.size());
    }
    return Status{env.source, env.tag, env.payload.size()};
  }

  /// Variable-size receive.
  template <class T>
  std::vector<T> recv_vector(int source = kAnySource, int tag = kAnyTag,
                             Status* status_out = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = pop(source, tag);
    auto& s = stats();
    ++s.p2p_messages_received;
    s.p2p_bytes_received += env.payload.size();
    if (status_out != nullptr) {
      *status_out = Status{env.source, env.tag, env.payload.size()};
    }
    return PendingRecv::take<T>(std::move(env));
  }

  template <class T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    recv(std::span<T>(&value, 1), source, tag);
    return value;
  }

  void send_string(const std::string& text, int dest, int tag) {
    send_bytes(std::as_bytes(std::span<const char>(text.data(), text.size())),
               dest, tag);
  }

  std::string recv_string(int source = kAnySource, int tag = kAnyTag) {
    std::vector<std::byte> raw;
    recv_bytes(raw, source, tag);
    // Empty payloads have a null data() pointer; constructing a string from
    // (nullptr, 0) is UB, so guard that case explicitly.
    if (raw.empty()) return std::string();
    return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
  }

  // ---- deadline-bounded receives ----------------------------------------
  // Like their unbounded counterparts but with an explicit per-call
  // deadline that overrides CommConfig::recv_timeout; they throw
  // RecvTimeoutError when it expires. The ODIN driver's ack/retry protocol
  // is built on these.

  Status recv_bytes_within(std::chrono::milliseconds timeout,
                           std::vector<std::byte>& out,
                           int source = kAnySource, int tag = kAnyTag) {
    Envelope env = pop(source, tag, timeout);
    Status st{env.source, env.tag, env.payload.size()};
    out = env.payload.take_bytes();
    auto& s = stats();
    ++s.p2p_messages_received;
    s.p2p_bytes_received += st.bytes;
    return st;
  }

  template <class T>
  T recv_value_within(std::chrono::milliseconds timeout,
                      int source = kAnySource, int tag = kAnyTag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = pop(source, tag, timeout);
    auto& s = stats();
    ++s.p2p_messages_received;
    s.p2p_bytes_received += env.payload.size();
    require<CommError>(
        env.payload.size() == sizeof(T),
        "recv_value_within: message of ", env.payload.size(),
        " bytes does not match value of ", sizeof(T), " bytes");
    T value{};
    std::memcpy(&value, env.payload.data(), sizeof(T));
    return value;
  }

  // ---- framework-internal point-to-point --------------------------------
  // Subsystem protocols (ODIN halo exchange and similar) send on reserved
  // tags >= kInternalP2PBase so they can never collide with user traffic
  // or with collective sequencing. Accounting is ordinary p2p: these are
  // point-to-point messages, just on a fenced-off tag range.

  template <class T>
  void send_internal(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_internal_tag(tag);
    send_bytes_internal(std::as_bytes(data), dest, tag, /*internal=*/false);
  }

  /// Zero-copy internal send (halo payloads, Import/Export packs).
  /// Accounting stays ordinary p2p: p2p_bytes_sent records the logical
  /// volume while bytes_copied stays untouched — the distinction the
  /// transport-tier benches assert on.
  template <class T>
  void send_internal(std::vector<T>&& data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_internal_tag(tag);
    send_buffer(Buffer::adopt(std::move(data)), dest, tag,
                /*internal=*/false);
  }

  template <class T>
  void send_value_internal(const T& value, int dest, int tag) {
    send_internal(std::span<const T>(&value, 1), dest, tag);
  }

  template <class T>
  T recv_value_internal(int source, int tag) {
    check_internal_tag(tag);
    return recv_value<T>(source, tag);
  }

  // ---- failure observability --------------------------------------------

  /// True when fault injection has killed `rank` (drivers use this to turn
  /// a missing ack into WorkerLostError instead of retrying forever).
  bool rank_dead(int rank) const { return ctx_->is_killed(rank); }

  /// Payload bytes currently buffered in this rank's mailbox.
  std::size_t queued_bytes() const {
    return ctx_->mailbox(rank_).queued_bytes();
  }

  // ---- non-blocking -----------------------------------------------------
  // GHEX-style transport surface: futures for isend/irecv, callbacks
  // posted to an explicit progress() loop, and non-blocking collectives
  // (ibarrier/iallreduce) that only advance inside progress().

  /// Non-blocking send. Payloads at or below CommConfig::eager_threshold
  /// are copied eagerly (the future is immediately ready); larger ones
  /// hand off by rendezvous — the envelope aliases `data` and the future
  /// completes when the receiver releases it, so the caller must keep
  /// `data` alive and unmodified until then (MPI isend semantics).
  template <class T>
  SendFuture isend(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_user_tag(tag);
    return isend_bytes(std::as_bytes(data), dest, tag);
  }

  /// Internal-tag variant (subsystem protocols above kInternalP2PBase).
  template <class T>
  SendFuture isend_internal(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_internal_tag(tag);
    return isend_bytes(std::as_bytes(data), dest, tag);
  }

  /// Posts a receive; completion is observed through the returned handle.
  PendingRecv irecv(int source = kAnySource, int tag = kAnyTag) {
    check_user_tag_or_any(tag);
    return PendingRecv(this, source, tag);
  }

  /// Internal-tag variant: lets subsystem protocols (halo exchange,
  /// split-phase Import) post their receives before compute.
  PendingRecv irecv_internal(int source, int tag) {
    check_internal_tag(tag);
    return PendingRecv(this, source, tag);
  }

  /// Callback-driven receive: `cb` runs inside a later progress() call on
  /// this rank's thread once a matching message arrives.
  using RecvCallback = std::function<void(Envelope)>;
  void irecv(int source, int tag, RecvCallback cb) {
    check_user_tag_or_any(tag);
    posted_.push_back(
        std::make_unique<CallbackRecvOp>(source, tag, std::move(cb)));
  }

  /// Drives every posted operation (callback receives and non-blocking
  /// collectives) one step; returns how many completed in this call.
  /// Rank-local and non-blocking: call it in a loop, GHEX-style.
  std::size_t progress() {
    poll_async_failures();
    std::size_t completed = 0;
    for (std::size_t i = 0; i < posted_.size();) {
      if (posted_[i]->step(*this)) {
        posted_.erase(posted_.begin() + static_cast<std::ptrdiff_t>(i));
        ++completed;
      } else {
        ++i;
      }
    }
    return completed;
  }

  /// Posted operations not yet complete (tests/instrumentation).
  std::size_t pending_operations() const { return posted_.size(); }

  /// Non-blocking dissemination barrier. Same wire format and sequencing
  /// as barrier(), advanced only by progress()/wait().
  CollFuture ibarrier() {
    obs::Span span = coll_span("ibarrier", 0);
    auto state = std::make_shared<NbCollState>();
    posted_.push_back(std::make_unique<IBarrierOp>(*this, state));
    return CollFuture(std::move(state), this);
  }

  /// Non-blocking allreduce (recursive doubling with the same
  /// non-power-of-two fold/fan-back as the blocking path). `in`/`out`
  /// must stay alive until the future completes; `out` must be sized like
  /// `in` on every rank.
  template <class T, class Op>
  CollFuture iallreduce(std::span<const T> in, std::span<T> out, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    require<CommError>(out.size() == in.size(),
                       "iallreduce: output span has wrong size");
    obs::Span span = coll_span("iallreduce", in.size_bytes(),
                               CollectiveAlgo::kRecursiveDoubling);
    note_algo(CollectiveAlgo::kRecursiveDoubling);
    auto state = std::make_shared<NbCollState>();
    posted_.push_back(
        std::make_unique<IAllreduceOp<T, Op>>(*this, in, out, op, state));
    return CollFuture(std::move(state), this);
  }

  // ---- collectives ------------------------------------------------------
  // Every collective must be entered by all ranks in the same order.
  // Reduction functors must be associative and commutative.

  /// Peers of the dissemination barrier at round distance `k`: every rank
  /// signals (rank + k) mod p and waits on (rank - k) mod p. Public and
  /// static so the pattern has a direct unit test — the previous inline
  /// expression `(rank - k % p + p) % p` parenthesized the reduction
  /// mod p around `k` alone and only matched the intended (rank - k) mod p
  /// because the loop bound keeps k < p.
  static int dissemination_send_peer(int rank, int k, int p) {
    return (rank + k % p) % p;
  }
  static int dissemination_recv_peer(int rank, int k, int p) {
    return ((rank - k) % p + p) % p;
  }

  void barrier() {
    obs::Span span = coll_span("barrier", 0);
    CollectiveDeadline deadline_guard(*this);
    const std::uint64_t seq = next_seq();
    const int p = size();
    for (int k = 1; k < p; k <<= 1) {
      const int phase = phase_of(k);
      coll_send(std::span<const std::byte>{},
                dissemination_send_peer(rank_, k, p), coll_tag(seq, phase));
      coll_recv_any_size(dissemination_recv_peer(rank_, k, p),
                         coll_tag(seq, phase));
    }
  }

  /// Binomial-tree broadcast of a fixed-size buffer.
  template <class T>
  void broadcast(std::span<T> data, int root,
                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    algo = resolve_rooted(algo, "broadcast");
    obs::Span span = coll_span("broadcast", data.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    const int p = size();
    if (algo == CollectiveAlgo::kLinear) {
      // Flat root-funneled reference: root sends the whole buffer to every
      // rank (the baseline the benches compare the tree schedules against).
      if (rank_ == root) {
        for (int r = 0; r < p; ++r) {
          if (r != root) {
            coll_send(std::as_bytes(std::span<const T>(data)), r,
                      coll_tag(seq, 0));
          }
        }
      } else {
        coll_recv_exact(std::as_writable_bytes(data), root, coll_tag(seq, 0));
      }
      return;
    }
    const int vrank = (rank_ - root + p) % p;
    int mask = 1;
    while (mask < p) {
      if (vrank & mask) {
        const int src = (vrank - mask + root) % p;
        coll_recv_exact(std::as_writable_bytes(data), src, coll_tag(seq, 0));
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < p) {
        const int dst = (vrank + mask + root) % p;
        coll_send(std::as_bytes(std::span<const T>(data)), dst,
                  coll_tag(seq, 0));
      }
      mask >>= 1;
    }
  }

  template <class T>
  T broadcast_value(T value, int root,
                    CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    broadcast(std::span<T>(&value, 1), root, algo);
    return value;
  }

  /// Broadcast of a variable-length string (length first, then bytes).
  std::string broadcast_string(const std::string& text, int root) {
    std::uint64_t len = text.size();
    len = broadcast_value(len, root);
    std::string out = (rank_ == root) ? text : std::string(len, '\0');
    if (len > 0) broadcast(std::span<char>(out.data(), out.size()), root);
    return out;
  }

  /// Element-wise reduction to `root` (binomial tree; kLinear forces the
  /// flat every-rank-sends-to-root funnel). `out` must be sized like `in`
  /// on the root; other ranks may pass an empty span.
  template <class T, class Op>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root,
              CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    algo = resolve_rooted(algo, "reduce");
    obs::Span span = coll_span("reduce", in.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    const int p = size();
    if (algo == CollectiveAlgo::kLinear) {
      // Flat funnel: root receives and folds every rank's vector in rank
      // order — (p-1)*n bytes concentrated at the root.
      if (rank_ == root) {
        require<CommError>(out.size() == in.size(),
                           "reduce: root output span has wrong size");
        std::copy(in.begin(), in.end(), out.begin());
        std::vector<T> incoming(in.size());
        for (int r = 0; r < p; ++r) {
          if (r == root) continue;
          coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)), r,
                          coll_tag(seq, 0));
          combine(out, std::span<const T>(incoming), op);
        }
      } else {
        coll_send(std::as_bytes(in), root, coll_tag(seq, 0));
      }
      return;
    }
    const int vrank = (rank_ - root + p) % p;
    std::vector<T> partial(in.begin(), in.end());
    int mask = 1;
    while (mask < p) {
      if ((vrank & mask) == 0) {
        const int vsrc = vrank | mask;
        if (vsrc < p) {
          const int src = (vsrc + root) % p;
          std::vector<T> incoming(in.size());
          coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)), src,
                          coll_tag(seq, phase_of(mask)));
          for (std::size_t i = 0; i < partial.size(); ++i) {
            partial[i] = op(partial[i], incoming[i]);
          }
        }
      } else {
        const int dst = ((vrank & ~mask) + root) % p;
        coll_send(std::as_bytes(std::span<const T>(partial)), dst,
                  coll_tag(seq, phase_of(mask)));
        break;
      }
      mask <<= 1;
    }
    if (rank_ == root) {
      require<CommError>(out.size() == in.size(),
                         "reduce: root output span has wrong size");
      std::copy(partial.begin(), partial.end(), out.begin());
    }
  }

  template <class T, class Op>
  T reduce_value(T value, Op op, int root) {
    T out{};
    reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, root);
    return out;  // meaningful only on root
  }

  /// Allreduce. kAuto picks recursive doubling below
  /// CollectivePolicy::allreduce_long_bytes and Rabenseifner
  /// (reduce-scatter + allgather) at or above it; kLinear forces the old
  /// root-funneled reduce+broadcast reference. `out` must be sized like
  /// `in` on every rank; every rank must pass the same `algo`.
  template <class T, class Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op,
                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    require<CommError>(out.size() == in.size(),
                       "allreduce: output span has wrong size");
    algo = resolve_allreduce(in.size_bytes(), algo);
    obs::Span span = coll_span("allreduce", in.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    if (algo == CollectiveAlgo::kLinear) {
      reduce(in, out, op, 0, CollectiveAlgo::kLinear);
      broadcast(out, 0, CollectiveAlgo::kLinear);
      return;
    }
    std::copy(in.begin(), in.end(), out.begin());
    const int p = size();
    const std::uint64_t seq = next_seq();
    if (p == 1 || in.empty()) return;  // same branch on every rank
    const std::size_t n = in.size();

    // Non-power-of-two handling (both algorithms): the first 2*rem ranks
    // fold pairwise onto the odd member, the surviving pof2 "core" ranks
    // run the power-of-two schedule, and the result is fanned back out.
    int pof2 = 1;
    while (pof2 * 2 <= p) pof2 *= 2;
    const int rem = p - pof2;
    std::vector<T> incoming(n);
    int newrank;
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        coll_send(std::as_bytes(std::span<const T>(out)), rank_ + 1,
                  coll_tag(seq, 0));
        newrank = -1;  // folded out until the final fan-back
      } else {
        coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)),
                        rank_ - 1, coll_tag(seq, 0));
        combine(out, std::span<const T>(incoming), op);
        newrank = rank_ / 2;
      }
    } else {
      newrank = rank_ - rem;
    }

    // Maps a core rank back to its real rank.
    auto real_of = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };

    if (newrank >= 0) {
      if (algo == CollectiveAlgo::kRecursiveDoubling) {
        int phase = 1;
        for (int mask = 1; mask < pof2; mask <<= 1, ++phase) {
          const int dst = real_of(newrank ^ mask);
          coll_send(std::as_bytes(std::span<const T>(out)), dst,
                    coll_tag(seq, phase));
          coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)), dst,
                          coll_tag(seq, phase));
          note_phase_bytes(n * sizeof(T));
          combine(out, std::span<const T>(incoming), op);
        }
      } else {  // kRabenseifner
        rabenseifner_core(out, op, seq, pof2, newrank, real_of);
      }
    }

    // Fan the finished vector back to the folded-out even ranks. The phase
    // index is fixed (not derived from the loop counters) so both sides of
    // each pair agree regardless of the core schedule's depth.
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        coll_recv_exact(std::as_writable_bytes(out), rank_ + 1,
                        coll_tag(seq, kCollPhases - 1));
      } else {
        coll_send(std::as_bytes(std::span<const T>(out)), rank_ - 1,
                  coll_tag(seq, kCollPhases - 1));
      }
    }
  }

  template <class T, class Op>
  T allreduce_value(T value, Op op,
                    CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, algo);
    return out;
  }

  /// Inclusive prefix scan along rank order (chain algorithm).
  template <class T, class Op>
  T scan_inclusive(T value, Op op) {
    obs::Span span = coll_span("scan_inclusive", sizeof(T));
    CollectiveDeadline deadline_guard(*this);
    const std::uint64_t seq = next_seq();
    T acc = value;
    if (rank_ > 0) {
      T prev{};
      coll_recv_exact(
          std::as_writable_bytes(std::span<T>(&prev, 1)), rank_ - 1,
          coll_tag(seq, 0));
      acc = op(prev, value);
    }
    if (rank_ + 1 < size()) {
      coll_send(std::as_bytes(std::span<const T>(&acc, 1)), rank_ + 1,
                coll_tag(seq, 0));
    }
    return acc;
  }

  /// Exclusive prefix scan; rank 0 receives `identity`.
  template <class T, class Op>
  T scan_exclusive(T value, Op op, T identity) {
    obs::Span span = coll_span("scan_exclusive", sizeof(T));
    CollectiveDeadline deadline_guard(*this);
    const T inc = scan_inclusive(value, op);
    // Rotate: every rank wants the inclusive scan of the previous rank.
    const std::uint64_t seq = next_seq();
    if (rank_ + 1 < size()) {
      coll_send(std::as_bytes(std::span<const T>(&inc, 1)), rank_ + 1,
                coll_tag(seq, 0));
    }
    T out = identity;
    if (rank_ > 0) {
      coll_recv_exact(std::as_writable_bytes(std::span<T>(&out, 1)), rank_ - 1,
                      coll_tag(seq, 0));
    }
    return out;
  }

  /// Equal-count gather into rank-ordered contiguous output on root.
  /// kAuto runs a binomial tree (log2(p) rounds; subtree payloads merge on
  /// the way up instead of p-1 rank-ordered receives funnelling into the
  /// root); kLinear forces the old root loop.
  template <class T>
  void gather(std::span<const T> mine, std::vector<T>& all, int root,
              CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    algo = resolve_gather(algo);
    obs::Span span = coll_span("gather", mine.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    const int p = size();
    const std::size_t cnt = mine.size();
    if (algo == CollectiveAlgo::kLinear) {
      if (rank_ == root) {
        all.assign(cnt * static_cast<std::size_t>(p), T{});
        for (int r = 0; r < p; ++r) {
          std::span<T> slot(all.data() + cnt * static_cast<std::size_t>(r),
                            cnt);
          if (r == rank_) {
            std::copy(mine.begin(), mine.end(), slot.begin());
          } else {
            coll_recv_exact(std::as_writable_bytes(slot), r, coll_tag(seq, 0));
          }
        }
      } else {
        coll_send(std::as_bytes(mine), root, coll_tag(seq, 0));
      }
      return;
    }
    // Binomial tree over virtual ranks (vrank 0 = root). Each rank
    // accumulates its subtree's blocks contiguously in vrank order, then
    // ships the whole thing to its parent in one message.
    const int vrank = (rank_ - root + p) % p;
    std::vector<T> buf(mine.begin(), mine.end());
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank & mask) {
        // All lower bits are zero here, so vrank - mask is the parent.
        coll_send(std::as_bytes(std::span<const T>(buf)),
                  (vrank - mask + root) % p, coll_tag(seq, phase_of(mask)));
        break;
      }
      const int child_v = vrank + mask;
      if (child_v < p) {
        const int child_blocks = std::min(mask, p - child_v);
        const std::size_t old = buf.size();
        buf.resize(old + static_cast<std::size_t>(child_blocks) * cnt);
        coll_recv_exact(
            std::as_writable_bytes(std::span<T>(buf).subspan(old)),
            (child_v + root) % p, coll_tag(seq, phase_of(mask)));
        note_phase_bytes(buf.size() * sizeof(T) - old * sizeof(T));
      }
    }
    if (rank_ == root) {
      // buf holds blocks for vranks 0..p-1; rotate back to real-rank order.
      all.assign(cnt * static_cast<std::size_t>(p), T{});
      for (int v = 0; v < p; ++v) {
        const int r = (v + root) % p;
        std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(v) * cnt),
                    cnt,
                    all.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(r) * cnt));
      }
    }
  }

  /// Variable-count gather; returns per-rank chunks on root (empty vector on
  /// non-roots).
  template <class T>
  std::vector<std::vector<T>> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    obs::Span span =
        coll_span("gatherv", mine.size_bytes(), CollectiveAlgo::kLinear);
    CollectiveDeadline deadline_guard(*this);
    note_algo(CollectiveAlgo::kLinear);
    const std::uint64_t seq = next_seq();
    std::vector<std::vector<T>> chunks;
    if (rank_ == root) {
      chunks.resize(static_cast<std::size_t>(size()));
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) {
          chunks[static_cast<std::size_t>(r)].assign(mine.begin(), mine.end());
        } else {
          chunks[static_cast<std::size_t>(r)] =
              coll_recv_variable<T>(r, coll_tag(seq, 0));
        }
      }
    } else {
      coll_send(std::as_bytes(mine), root, coll_tag(seq, 0));
    }
    return chunks;
  }

  /// Every rank gets the rank-ordered concatenation. kAuto picks Bruck's
  /// log-round schedule below CollectivePolicy::allgather_long_bytes and
  /// the bandwidth-optimal ring at or above it; kLinear forces the old
  /// gather-to-0 + broadcast reference. Counts must match on every rank.
  template <class T>
  std::vector<T> allgather(std::span<const T> mine,
                           CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    algo = resolve_allgather(mine.size_bytes(), algo);
    obs::Span span = coll_span("allgather", mine.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    if (algo == CollectiveAlgo::kLinear) {
      std::vector<T> all;
      gather(mine, all, 0, CollectiveAlgo::kLinear);
      std::uint64_t total = all.size();
      total = broadcast_value(total, 0, CollectiveAlgo::kLinear);
      all.resize(total);
      broadcast(std::span<T>(all), 0, CollectiveAlgo::kLinear);
      return all;
    }
    const int p = size();
    const std::size_t cnt = mine.size();
    std::vector<T> all(cnt * static_cast<std::size_t>(p));
    const std::uint64_t seq = next_seq();
    auto block = [&](std::vector<T>& v, int b) {
      return std::span<T>(v).subspan(static_cast<std::size_t>(b) * cnt, cnt);
    };
    if (p == 1) {
      std::copy(mine.begin(), mine.end(), all.begin());
      return all;
    }
    if (algo == CollectiveAlgo::kRing) {
      // p-1 neighbour rounds; every rank relays the block it received in
      // the previous round, so no rank ever handles more than its share.
      std::copy(mine.begin(), mine.end(), block(all, rank_).begin());
      const int right = (rank_ + 1) % p;
      const int left = (rank_ - 1 + p) % p;
      for (int step = 0; step < p - 1; ++step) {
        const int sblk = (rank_ - step + p) % p;
        const int rblk = (rank_ - step - 1 + p) % p;
        coll_send(std::as_bytes(std::span<const T>(block(all, sblk))), right,
                  coll_tag(seq, step));
        coll_recv_exact(std::as_writable_bytes(block(all, rblk)), left,
                        coll_tag(seq, step));
        note_phase_bytes(cnt * sizeof(T));
      }
      return all;
    }
    // Bruck: ceil(log2 p) doubling rounds over a rotated buffer, then one
    // local unrotation. Round k ships min(2^k, p - 2^k) blocks.
    std::vector<T> tmp(cnt * static_cast<std::size_t>(p));
    std::copy(mine.begin(), mine.end(), tmp.begin());
    int held = 1;
    int phase = 0;
    while (held < p) {
      const int blocks = std::min(held, p - held);
      const int dst = (rank_ - held + p) % p;
      const int src = (rank_ + held) % p;
      const std::size_t nelems = static_cast<std::size_t>(blocks) * cnt;
      coll_send(std::as_bytes(std::span<const T>(tmp.data(), nelems)), dst,
                coll_tag(seq, phase));
      coll_recv_exact(
          std::as_writable_bytes(std::span<T>(
              tmp.data() + static_cast<std::size_t>(held) * cnt, nelems)),
          src, coll_tag(seq, phase));
      note_phase_bytes(nelems * sizeof(T));
      held += blocks;
      ++phase;
    }
    // tmp block j holds rank (rank_ + j) % p's contribution.
    for (int j = 0; j < p; ++j) {
      const int r = (rank_ + j) % p;
      std::copy(block(tmp, j).begin(), block(tmp, j).end(),
                block(all, r).begin());
    }
    return all;
  }

  template <class T>
  std::vector<T> allgather_value(const T& value,
                                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    return allgather(std::span<const T>(&value, 1), algo);
  }

  /// Variable-count allgather; every rank gets all per-rank chunks. One
  /// fixed-size round of counts (Bruck under kAuto) followed by a ring of
  /// the variable chunks — the pre-PR root round-trips (gather + two
  /// broadcasts for counts, gatherv + broadcast for payload) are gone.
  template <class T>
  std::vector<std::vector<T>> allgatherv(
      std::span<const T> mine, CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    const bool linear = algo == CollectiveAlgo::kLinear ||
                        (algo == CollectiveAlgo::kAuto &&
                         ctx_->config().coll.allgather ==
                             CollectiveAlgo::kLinear);
    obs::Span span = coll_span(
        "allgatherv", mine.size_bytes(),
        linear ? CollectiveAlgo::kLinear : CollectiveAlgo::kRing);
    CollectiveDeadline deadline_guard(*this);
    note_algo(linear ? CollectiveAlgo::kLinear : CollectiveAlgo::kRing);
    if (linear) {
      auto counts =
          allgather_value<std::uint64_t>(mine.size(), CollectiveAlgo::kLinear);
      std::vector<T> flat = allgather_concat(mine, counts);
      std::vector<std::vector<T>> chunks(counts.size());
      std::size_t off = 0;
      for (std::size_t r = 0; r < counts.size(); ++r) {
        chunks[r].assign(
            flat.begin() + static_cast<std::ptrdiff_t>(off),
            flat.begin() + static_cast<std::ptrdiff_t>(off + counts[r]));
        off += counts[r];
      }
      return chunks;
    }
    const int p = size();
    auto counts = allgather_value<std::uint64_t>(mine.size());
    std::vector<std::vector<T>> chunks(static_cast<std::size_t>(p));
    chunks[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
    if (p == 1) return chunks;
    const std::uint64_t seq = next_seq();
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
      const int sblk = (rank_ - step + p) % p;
      const int rblk = (rank_ - step - 1 + p) % p;
      auto& incoming = chunks[static_cast<std::size_t>(rblk)];
      coll_send(std::as_bytes(std::span<const T>(
                    chunks[static_cast<std::size_t>(sblk)])),
                right, coll_tag(seq, step));
      incoming.resize(counts[static_cast<std::size_t>(rblk)]);
      coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)), left,
                      coll_tag(seq, step));
      note_phase_bytes(chunks[static_cast<std::size_t>(sblk)].size() *
                       sizeof(T));
    }
    return chunks;
  }

  /// Equal-count scatter from root's rank-ordered buffer. kAuto runs a
  /// binomial tree: the root hands each child its whole subtree's blocks
  /// in one message and the tree fans them out, log2(p) rounds deep.
  /// kLinear forces the old p-1 sends at the root.
  template <class T>
  void scatter(std::span<const T> all, std::span<T> mine, int root,
               CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    algo = resolve_scatter(algo);
    obs::Span span = coll_span("scatter", mine.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    const int p = size();
    const std::size_t cnt = mine.size();
    if (rank_ == root) {
      require<CommError>(all.size() == cnt * static_cast<std::size_t>(p),
                         "scatter: root buffer size != count * nranks");
    }
    if (algo == CollectiveAlgo::kLinear) {
      if (rank_ == root) {
        for (int r = 0; r < p; ++r) {
          std::span<const T> slot(all.data() + cnt * static_cast<std::size_t>(r),
                                  cnt);
          if (r == rank_) {
            std::copy(slot.begin(), slot.end(), mine.begin());
          } else {
            coll_send(std::as_bytes(slot), r, coll_tag(seq, 0));
          }
        }
      } else {
        coll_recv_exact(std::as_writable_bytes(mine), root, coll_tag(seq, 0));
      }
      return;
    }
    // Binomial tree over virtual ranks (vrank 0 = root). `buf` holds this
    // rank's subtree blocks in vrank order, my own block first.
    const int vrank = (rank_ - root + p) % p;
    std::vector<T> buf;
    int subtree;  // blocks under (and including) this vrank
    if (vrank == 0) {
      subtree = p;
      buf.resize(cnt * static_cast<std::size_t>(p));
      for (int v = 0; v < p; ++v) {
        const int r = (v + root) % p;
        std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(r) * cnt),
                    cnt,
                    buf.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(v) * cnt));
      }
    } else {
      const int lowbit = vrank & (-vrank);
      subtree = std::min(lowbit, p - vrank);
      buf.resize(static_cast<std::size_t>(subtree) * cnt);
      coll_recv_exact(std::as_writable_bytes(std::span<T>(buf)),
                      (vrank - lowbit + root) % p,
                      coll_tag(seq, phase_of(lowbit)));
    }
    // Children sit at vrank + mask for each power of two mask below the
    // subtree span; walk them largest-first so deep subtrees start early.
    int top = 1;
    while (top < p) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      if (mask >= subtree) continue;
      const int child_v = vrank + mask;  // < p because mask < subtree
      const int child_blocks = std::min(mask, p - child_v);
      coll_send(std::as_bytes(std::span<const T>(buf).subspan(
                    static_cast<std::size_t>(mask) * cnt,
                    static_cast<std::size_t>(child_blocks) * cnt)),
                (child_v + root) % p, coll_tag(seq, phase_of(mask)));
      note_phase_bytes(static_cast<std::size_t>(child_blocks) * cnt *
                       sizeof(T));
    }
    std::copy_n(buf.begin(), cnt, mine.begin());
  }

  /// Variable-count scatter; `parts` is consulted only on root.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& parts, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_root(root);
    obs::Span span = coll_span("scatterv", 0, CollectiveAlgo::kLinear);
    CollectiveDeadline deadline_guard(*this);
    note_algo(CollectiveAlgo::kLinear);
    const std::uint64_t seq = next_seq();
    if (rank_ == root) {
      require<CommError>(parts.size() == static_cast<std::size_t>(size()),
                         "scatterv: need one part per rank on root");
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) continue;
        coll_send(std::as_bytes(std::span<const T>(parts[static_cast<std::size_t>(r)])),
                  r, coll_tag(seq, 0));
      }
      return parts[static_cast<std::size_t>(rank_)];
    }
    return coll_recv_variable<T>(root, coll_tag(seq, 0));
  }

  /// Equal-count personalized all-to-all: sendbuf holds `count` elements per
  /// destination rank in rank order; recvbuf likewise per source.
  template <class T>
  void alltoall(std::span<const T> sendbuf, std::span<T> recvbuf,
                CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    require<CommError>(sendbuf.size() == recvbuf.size() &&
                           sendbuf.size() % static_cast<std::size_t>(p) == 0,
                       "alltoall: buffer sizes must be equal multiples of "
                       "the rank count");
    const std::size_t count = sendbuf.size() / static_cast<std::size_t>(p);
    algo = resolve_alltoall(algo);
    obs::Span span = coll_span("alltoall", sendbuf.size_bytes(), algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    auto sendblk = [&](int r) {
      return std::span<const T>(
          sendbuf.data() + count * static_cast<std::size_t>(r), count);
    };
    auto recvblk = [&](int r) {
      return std::span<T>(recvbuf.data() + count * static_cast<std::size_t>(r),
                          count);
    };
    std::copy(sendblk(rank_).begin(), sendblk(rank_).end(),
              recvblk(rank_).begin());
    if (algo == CollectiveAlgo::kLinear) {
      for (int r = 0; r < p; ++r) {
        if (r != rank_) coll_send(std::as_bytes(sendblk(r)), r, coll_tag(seq, 0));
      }
      for (int r = 0; r < p; ++r) {
        if (r != rank_) {
          coll_recv_exact(std::as_writable_bytes(recvblk(r)), r,
                          coll_tag(seq, 0));
        }
      }
      return;
    }
    // Pairwise exchange: p-1 balanced rounds; at step k every rank talks
    // to exactly one partner in each direction instead of the rank-ordered
    // receive ladder that serialized on low ranks.
    for (int step = 1; step < p; ++step) {
      const int dst = (rank_ + step) % p;
      const int src = (rank_ - step + p) % p;
      coll_send(std::as_bytes(sendblk(dst)), dst, coll_tag(seq, step - 1));
      coll_recv_exact(std::as_writable_bytes(recvblk(src)), src,
                      coll_tag(seq, step - 1));
      note_phase_bytes(count * sizeof(T));
    }
  }

  /// Variable-count personalized all-to-all — the shuffle primitive under
  /// ODIN's map-reduce and redistribution. sendparts[r] goes to rank r; the
  /// return value's element [r] came from rank r.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& sendparts,
      CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    require<CommError>(sendparts.size() == static_cast<std::size_t>(p),
                       "alltoallv: need one part per destination rank");
    std::size_t send_bytes = 0;
    for (const auto& part : sendparts) send_bytes += part.size() * sizeof(T);
    algo = resolve_alltoall(algo);
    obs::Span span = coll_span("alltoallv", send_bytes, algo);
    CollectiveDeadline deadline_guard(*this);
    note_algo(algo);
    const std::uint64_t seq = next_seq();
    std::vector<std::vector<T>> recvparts(static_cast<std::size_t>(p));
    recvparts[static_cast<std::size_t>(rank_)] =
        sendparts[static_cast<std::size_t>(rank_)];
    if (algo == CollectiveAlgo::kLinear) {
      for (int r = 0; r < p; ++r) {
        if (r == rank_) continue;
        coll_send(std::as_bytes(std::span<const T>(
                      sendparts[static_cast<std::size_t>(r)])),
                  r, coll_tag(seq, 0));
      }
      for (int r = 0; r < p; ++r) {
        if (r == rank_) continue;
        recvparts[static_cast<std::size_t>(r)] =
            coll_recv_variable<T>(r, coll_tag(seq, 0));
      }
      return recvparts;
    }
    // Pairwise exchange, same schedule as alltoall but with per-pair
    // variable payloads.
    for (int step = 1; step < p; ++step) {
      const int dst = (rank_ + step) % p;
      const int src = (rank_ - step + p) % p;
      coll_send(std::as_bytes(std::span<const T>(
                    sendparts[static_cast<std::size_t>(dst)])),
                dst, coll_tag(seq, step - 1));
      recvparts[static_cast<std::size_t>(src)] =
          coll_recv_variable<T>(src, coll_tag(seq, step - 1));
      note_phase_bytes(sendparts[static_cast<std::size_t>(dst)].size() *
                       sizeof(T));
    }
    return recvparts;
  }

  /// Zero-copy alltoallv: consumes the send parts, moving each one into
  /// its envelope instead of copying — the shuffle primitive's payloads
  /// travel by pointer swap end to end (receivers move them back out via
  /// the take() fast path). Linear schedule only, whatever
  /// CommConfig::coll.alltoall says: every part must be moved before any
  /// blocking receive so sends stay non-blocking.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      std::vector<std::vector<T>>&& sendparts) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    require<CommError>(sendparts.size() == static_cast<std::size_t>(p),
                       "alltoallv: need one part per destination rank");
    std::size_t send_bytes = 0;
    for (const auto& part : sendparts) send_bytes += part.size() * sizeof(T);
    obs::Span span = coll_span("alltoallv", send_bytes,
                               CollectiveAlgo::kLinear);
    CollectiveDeadline deadline_guard(*this);
    note_algo(CollectiveAlgo::kLinear);
    const std::uint64_t seq = next_seq();
    std::vector<std::vector<T>> recvparts(static_cast<std::size_t>(p));
    recvparts[static_cast<std::size_t>(rank_)] =
        std::move(sendparts[static_cast<std::size_t>(rank_)]);
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      coll_send_vec(std::move(sendparts[static_cast<std::size_t>(r)]), r,
                    coll_tag(seq, 0));
    }
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      recvparts[static_cast<std::size_t>(r)] =
          coll_recv_variable<T>(r, coll_tag(seq, 0));
    }
    return recvparts;
  }

  /// Splits the communicator by colour; ranks sharing a colour form a child
  /// communicator ordered by (key, parent rank). MPI_Comm_split analogue.
  Communicator split(int color, int key);

  /// Duplicates the communicator (independent collective sequencing).
  Communicator duplicate() { return split(0, rank_); }

  // ---- ULFM-style recovery ----------------------------------------------
  // The forward-progress protocol after a rank death (DESIGN.md §7):
  // detect (PeerKilledError from a collective receive) -> revoke() ->
  // agree() -> shrink() -> redistribute + restore a checkpoint on the
  // survivor communicator (solvers::resilient_solve drives the last step).

  /// Revokes the communicator: every blocked receive/probe throws
  /// RevokedError and future sends/receives on it fail, so all survivors
  /// fall out of interrupted operations and can join agree()/shrink().
  /// Irreversible — continue on the communicator shrink() returns.
  void revoke() { ctx_->revoke(); }
  bool revoked() const { return ctx_->is_revoked(); }

  /// Contribution flag for agree(): "this rank observed a failure that left
  /// no corpse" (a starved receive, a revocation). Lives in the top bit so
  /// it can never collide with a rank bit below size() < 64; callers that
  /// need it must therefore run on fewer than 64 ranks.
  static constexpr std::uint64_t kAgreeFailureFlag = std::uint64_t{1} << 63;

  /// Fault-tolerant agreement on the dead-rank bitmask (bit r = rank r
  /// dead). Every surviving rank must call it once per recovery round;
  /// the result is identical on all of them: the OR of every rank's
  /// `local_dead_mask` plus all ranks that are killed (or already
  /// returned). Works on a revoked communicator and tolerates ranks dying
  /// mid-agreement (they are excused and folded into the result). Bits at
  /// or above size() pass through untouched, so callers can piggyback
  /// flags (kAgreeFailureFlag) on the same round.
  std::uint64_t agree(std::uint64_t local_dead_mask = 0) {
    return ctx_->agree(rank_, local_dead_mask);
  }

  /// Agrees on the dead set and returns a dense re-ranked communicator of
  /// the survivors (MPI_Comm_shrink analogue): survivors keep their
  /// relative order and renumber to [0, n_survivors). The child context is
  /// fresh (not revoked, empty mailboxes) but inherits the parent's
  /// config *including the fault injector*, so chaos schedules keep firing
  /// across shrinks — note that injector rules matching specific ranks
  /// then address the child's renumbered ranks. Throws PeerKilledError if
  /// the lowest survivor dies before publishing the child (call shrink()
  /// again: the next round excludes it).
  Communicator shrink();

 private:
  friend class PendingRecv;

  void check_user_tag(int tag) const {
    require<CommError>(tag >= 0 && tag < kMaxUserTag,
                       "tag ", tag, " outside user range [0, ", kMaxUserTag,
                       ")");
  }
  void check_user_tag_or_any(int tag) const {
    if (tag != kAnyTag) check_user_tag(tag);
  }
  void check_internal_tag(int tag) const {
    require<CommError>(tag >= kInternalP2PBase,
                       "internal p2p tag ", tag, " below reserved base ",
                       kInternalP2PBase);
  }
  void check_root(int root) const {
    require<CommError>(root >= 0 && root < size(),
                       "collective root out of range");
  }

  Mailbox::WaitOptions wait_options(
      std::optional<std::chrono::milliseconds> timeout_override =
          std::nullopt) const {
    Mailbox::WaitOptions w;
    w.aborted = &ctx_->abort_flag();
    w.killed = &ctx_->killed_flag(rank_);
    w.revoked = &ctx_->revoked_flag();
    w.timeout = timeout_override.value_or(ctx_->config().recv_timeout);
    return w;
  }

  /// An abort-path CommError may really be the watchdog's verdict; surface
  /// the who-waits-on-whom report as DeadlockError when it is.
  [[noreturn]] void rethrow_refined() const {
    if (ctx_->deadlocked()) throw DeadlockError(ctx_->deadlock_report());
    throw;
  }

  void verify_integrity(const Envelope& env) {
    if (envelope_checksum(env) == env.checksum) return;
    ++stats().corruption_detected;
    throw CommIntegrityError(util::cat(
        "message integrity check failed (source ", env.source, ", tag ",
        env.tag, ", ", env.payload.size(), " bytes): checksum mismatch"));
  }

  Envelope pop(int source, int tag,
               std::optional<std::chrono::milliseconds> timeout_override =
                   std::nullopt) {
    Mailbox::WaitOptions w = wait_options(timeout_override);
    // Same fast peer-death detection as coll_pop: a p2p receive from a
    // specific dead source can never be satisfied (queued matches still
    // deliver first), so fail fast instead of waiting out the watchdog.
    // Split-phase Import waits (halo exchange) ride on this path, so a
    // rank killed mid-exchange surfaces to its peers as PeerKilledError —
    // inside resilient_solve's recovery scope — rather than a deadlock.
    if (source != kAnySource && source != rank_) {
      w.peer_killed = &ctx_->killed_flag(source);
      w.peer_rank = source;
    }
    Envelope env = [&] {
      try {
        return ctx_->mailbox(rank_).pop_matching(source, tag, w);
      } catch (const RecvTimeoutError&) {
        ++stats().timeouts;
        throw;
      } catch (const RankKilledError&) {
        throw;
      } catch (const CommError&) {
        rethrow_refined();
      }
    }();
    verify_integrity(env);
    return env;
  }

  /// The send core every path funnels through: validates the destination
  /// and this rank's liveness, books the *logical* message volume into the
  /// p2p/coll counters (zero-copy and copied sends report the same logical
  /// bytes — `bytes_copied` separately tracks the physical copies), and
  /// hands the envelope to Context::deliver.
  void send_buffer(Buffer payload, int dest, int tag, bool internal) {
    require<CommError>(dest >= 0 && dest < size(),
                       "send: destination rank ", dest,
                       " out of range [0, ", size(), ")");
    // A killed rank discovers its own death the moment it touches the
    // substrate again.
    if (ctx_->is_killed(rank_)) {
      throw RankKilledError("send on a killed rank (fault injection)");
    }
    if (ctx_->is_revoked()) {
      throw RevokedError("send on a revoked communicator");
    }
    auto& s = stats();
    if (internal) {
      ++s.coll_messages_sent;
      s.coll_bytes_sent += payload.size();
    } else {
      ++s.p2p_messages_sent;
      s.p2p_bytes_sent += payload.size();
    }
    if (payload.zero_copy()) {
      ++s.zero_copy_messages;
      s.zero_copy_bytes += payload.size();
    }
    Envelope env;
    env.source = rank_;
    env.tag = tag;
    env.payload = std::move(payload);
    ctx_->deliver(dest, std::move(env));
  }

  /// Eager copying send: the payload is copied out immediately (pooled
  /// arena block when it fits, heap otherwise), so the caller's buffer is
  /// free the moment this returns — sends never block, which the
  /// collectives' deadlock-freedom depends on.
  void send_bytes_internal(std::span<const std::byte> data, int dest, int tag,
                           bool internal) {
    bool pooled = false;
    Buffer payload = Buffer::copy_of(data, &ctx_->arena(), &pooled);
    auto& s = stats();
    s.bytes_copied += data.size();
    if (!data.empty() && data.size() <= ctx_->arena().block_bytes()) {
      if (pooled) {
        ++s.arena_hits;
      } else {
        ++s.arena_misses;
      }
    }
    send_buffer(std::move(payload), dest, tag, internal);
  }

  /// Non-blocking send core: eager copy at or below the threshold (the
  /// returned future is already ready), rendezvous above it (the envelope
  /// aliases `data`; the future completes when every reference — including
  /// fault-injected duplicates — has been released).
  SendFuture isend_bytes(std::span<const std::byte> data, int dest, int tag) {
    if (data.size() <= ctx_->config().eager_threshold) {
      send_bytes_internal(data, dest, tag, /*internal=*/false);
      return SendFuture();
    }
    ++stats().rendezvous;
    auto handoff = std::make_shared<RendezvousState>();
    send_buffer(Buffer::view(data, handoff), dest, tag, /*internal=*/false);
    return SendFuture(std::move(handoff), ctx_, rank_);
  }

  void coll_send(std::span<const std::byte> data, int dest, int tag) {
    send_bytes_internal(data, dest, tag, /*internal=*/true);
  }

  /// Zero-copy collective-internal send: moves an rvalue vector into the
  /// envelope instead of copying it (the moved alltoallv under ODIN's
  /// shuffle and the Import's owned staging buffers use this).
  template <class T>
  void coll_send_vec(std::vector<T>&& data, int dest, int tag) {
    send_buffer(Buffer::adopt(std::move(data)), dest, tag, /*internal=*/true);
  }

  // ---- non-blocking operation state machines -----------------------------
  // Each posted operation is a small state machine advanced by progress();
  // step() returns true when the operation is complete. They use only
  // non-blocking mailbox primitives, so progress() never blocks.

  struct NbOp {
    virtual ~NbOp() = default;
    virtual bool step(Communicator& comm) = 0;
  };

  struct CallbackRecvOp final : NbOp {
    CallbackRecvOp(int source, int tag, RecvCallback cb)
        : source_(source), tag_(tag), cb_(std::move(cb)) {}
    bool step(Communicator& comm) override {
      auto env =
          comm.ctx_->mailbox(comm.rank_).try_pop_matching(source_, tag_);
      if (!env.has_value()) return false;
      comm.verify_integrity(*env);
      auto& s = comm.stats();
      ++s.p2p_messages_received;
      s.p2p_bytes_received += env->payload.size();
      cb_(std::move(*env));
      return true;
    }
    int source_;
    int tag_;
    RecvCallback cb_;
  };

  /// Dissemination barrier, one round per step: at round k, notify rank
  /// (me + 2^k) and wait for rank (me - 2^k). Same deadlock-free structure
  /// as the blocking barrier, but each round's receive is a try_pop so the
  /// whole machine lives inside progress().
  struct IBarrierOp final : NbOp {
    IBarrierOp(Communicator& comm, std::shared_ptr<NbCollState> state)
        : seq_(comm.next_seq()), state_(std::move(state)) {}
    bool step(Communicator& comm) override {
      const int p = comm.size();
      while (round_ < rounds_needed(p)) {
        const int dist = 1 << round_;
        if (!sent_) {
          comm.coll_send({}, (comm.rank_ + dist) % p, comm.coll_tag(seq_, round_));
          sent_ = true;
        }
        const int src = (comm.rank_ - dist % p + p) % p;
        auto env = comm.ctx_->mailbox(comm.rank_).try_pop_matching(
            src, comm.coll_tag(seq_, round_));
        if (!env.has_value()) return false;
        comm.verify_integrity(*env);
        ++comm.stats().coll_messages_received;
        ++round_;
        sent_ = false;
      }
      state_->done.store(true, std::memory_order_release);
      return true;
    }
    static int rounds_needed(int p) {
      int rounds = 0;
      for (int dist = 1; dist < p; dist <<= 1) ++rounds;
      return rounds;
    }
    std::uint64_t seq_;
    std::shared_ptr<NbCollState> state_;
    int round_ = 0;
    bool sent_ = false;
  };

  /// Non-blocking allreduce by recursive doubling, with the same
  /// non-power-of-two fold/fan-back as the blocking path: extra ranks fold
  /// their vector into a pof2 partner up front and receive the result back
  /// at the end.
  template <class T, class Op>
  struct IAllreduceOp final : NbOp {
    IAllreduceOp(Communicator& comm, std::span<const T> in, std::span<T> out,
                 Op op, std::shared_ptr<NbCollState> state)
        : seq_(comm.next_seq()),
          out_(out),
          op_(op),
          state_(std::move(state)) {
      std::copy(in.begin(), in.end(), out_.begin());
      pof2_ = 1;
      while (pof2_ * 2 <= comm.size()) pof2_ *= 2;
      rem_ = comm.size() - pof2_;
    }
    bool step(Communicator& comm) override {
      const int r = comm.rank_;
      // Stage 0 — fold-in: ranks [pof2, p) send to (rank - pof2) and then
      // just wait for the fan-back; their partners fold the contribution.
      if (stage_ == 0) {
        if (r >= pof2_) {
          if (!sent_) {
            comm.coll_send(std::as_bytes(std::span<const T>(out_)), r - pof2_,
                           comm.coll_tag(seq_, 0));
            sent_ = true;
          }
          stage_ = 2;  // skip the core; wait for fan-back
          sent_ = false;
        } else if (r < rem_) {
          if (!try_recv_combine(comm, r + pof2_, comm.coll_tag(seq_, 0))) {
            return false;
          }
          stage_ = 1;
          sent_ = false;
        } else {
          stage_ = 1;
          sent_ = false;
        }
      }
      // Stage 1 — recursive doubling among the pof2 core ranks.
      if (stage_ == 1) {
        while (mask_ < pof2_) {
          const int dst = r ^ mask_;
          const int phase = 1 + phase_of(mask_);
          if (!sent_) {
            comm.coll_send(std::as_bytes(std::span<const T>(out_)), dst,
                           comm.coll_tag(seq_, phase));
            sent_ = true;
          }
          if (!try_recv_combine(comm, dst, comm.coll_tag(seq_, phase))) {
            return false;
          }
          mask_ <<= 1;
          sent_ = false;
        }
        stage_ = 2;
      }
      // Stage 2 — fan-back to/from the folded-in extra ranks.
      if (r < rem_) {
        comm.coll_send(std::as_bytes(std::span<const T>(out_)), r + pof2_,
                       comm.coll_tag(seq_, 1 + phase_of(pof2_)));
      } else if (r >= pof2_) {
        auto env = comm.ctx_->mailbox(comm.rank_).try_pop_matching(
            r - pof2_, comm.coll_tag(seq_, 1 + phase_of(pof2_)));
        if (!env.has_value()) return false;
        comm.verify_integrity(*env);
        auto& s = comm.stats();
        ++s.coll_messages_received;
        s.coll_bytes_received += env->payload.size();
        require<CommError>(env->payload.size() == out_.size() * sizeof(T),
                           "iallreduce: unexpected message size");
        if (!env->payload.empty()) {
          std::memcpy(out_.data(), env->payload.data(), env->payload.size());
        }
      }
      state_->done.store(true, std::memory_order_release);
      return true;
    }

   private:
    bool try_recv_combine(Communicator& comm, int src, int tag) {
      auto env = comm.ctx_->mailbox(comm.rank_).try_pop_matching(src, tag);
      if (!env.has_value()) return false;
      comm.verify_integrity(*env);
      auto& s = comm.stats();
      ++s.coll_messages_received;
      s.coll_bytes_received += env->payload.size();
      require<CommError>(env->payload.size() == out_.size() * sizeof(T),
                         "iallreduce: unexpected message size");
      std::vector<T> incoming(out_.size());
      if (!env->payload.empty()) {
        std::memcpy(incoming.data(), env->payload.data(),
                    env->payload.size());
      }
      combine(out_, std::span<const T>(incoming), op_);
      return true;
    }

    std::uint64_t seq_;
    std::span<T> out_;
    Op op_;
    std::shared_ptr<NbCollState> state_;
    int pof2_ = 1;
    int rem_ = 0;
    int stage_ = 0;
    int mask_ = 1;
    bool sent_ = false;
  };

  /// Failure poll for the non-blocking paths: progress() and
  /// CollFuture::wait() call it so a fault-injected death, revocation, or
  /// world abort surfaces as the matching error instead of silent stalls.
  void poll_async_failures() {
    if (ctx_->is_killed(rank_)) {
      throw RankKilledError("progress on a killed rank (fault injection)");
    }
    if (ctx_->is_revoked()) {
      throw RevokedError("progress on a revoked communicator");
    }
    if (ctx_->abort_flag().load(std::memory_order_relaxed)) {
      if (ctx_->deadlocked()) throw DeadlockError(ctx_->deadlock_report());
      throw CommError("progress aborted: another rank failed");
    }
  }

  /// RAII deadline budget for one collective call: the outermost
  /// collective entered on this rank arms a single deadline of
  /// CommConfig::recv_timeout covering *all* of its internal phases
  /// (coll_pop spends the remainder, not a fresh timeout per phase — a
  /// p-phase schedule no longer waits up to ~p x the configured
  /// deadline). Nested collectives (kLinear compositions, allgatherv's
  /// count round) inherit the outer budget.
  class CollectiveDeadline {
   public:
    explicit CollectiveDeadline(Communicator& comm) : comm_(comm) {
      const auto budget = comm_.ctx_->config().recv_timeout;
      if (comm_.coll_deadline_ ==
              std::chrono::steady_clock::time_point{} &&
          budget.count() > 0) {
        comm_.coll_deadline_ = std::chrono::steady_clock::now() + budget;
        owner_ = true;
      }
    }
    ~CollectiveDeadline() {
      if (owner_) comm_.coll_deadline_ = {};
    }
    CollectiveDeadline(const CollectiveDeadline&) = delete;
    CollectiveDeadline& operator=(const CollectiveDeadline&) = delete;

   private:
    Communicator& comm_;
    bool owner_ = false;
  };

  /// Collective-internal receive: spends the shared per-collective
  /// deadline budget and watches the expected sender's killed flag, so a
  /// peer dying mid-collective surfaces as PeerKilledError promptly
  /// instead of hanging until the watchdog aborts the world.
  Envelope coll_pop(int source, int tag) {
    std::optional<std::chrono::milliseconds> budget;
    if (coll_deadline_ != std::chrono::steady_clock::time_point{}) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= coll_deadline_) {
        ++stats().timeouts;
        throw RecvTimeoutError(util::cat(
            "collective exceeded its shared ",
            ctx_->config().recv_timeout.count(),
            " ms deadline (budget spans all phases of one collective)"));
      }
      budget = std::max(std::chrono::duration_cast<std::chrono::milliseconds>(
                            coll_deadline_ - now),
                        std::chrono::milliseconds(1));
    }
    Mailbox::WaitOptions w = wait_options(budget);
    if (source != kAnySource && source != rank_) {
      w.peer_killed = &ctx_->killed_flag(source);
      w.peer_rank = source;
    }
    Envelope env = [&] {
      try {
        return ctx_->mailbox(rank_).pop_matching(source, tag, w);
      } catch (const RecvTimeoutError&) {
        ++stats().timeouts;
        throw;
      } catch (const RankKilledError&) {
        throw;  // own death or PeerKilledError — both propagate unchanged
      } catch (const CommError&) {
        rethrow_refined();
      }
    }();
    verify_integrity(env);
    return env;
  }

  void coll_recv_exact(std::span<std::byte> buf, int source, int tag) {
    Envelope env = coll_pop(source, tag);
    auto& s = stats();
    ++s.coll_messages_received;
    s.coll_bytes_received += env.payload.size();
    require<CommError>(env.payload.size() == buf.size(),
                       "collective recv: unexpected message size");
    // This is the gatherv/coll decode path of the empty-payload audit: an
    // empty contribution (legal in gatherv and the variable collectives)
    // arrives with payload.data() == nullptr, and memcpy with a null
    // source is UB even for size 0.
    if (!env.payload.empty()) {
      std::memcpy(buf.data(), env.payload.data(), env.payload.size());
    }
  }

  void coll_recv_any_size(int source, int tag) {
    Envelope env = coll_pop(source, tag);
    auto& s = stats();
    ++s.coll_messages_received;
    s.coll_bytes_received += env.payload.size();
  }

  template <class T>
  std::vector<T> coll_recv_variable(int source, int tag) {
    Envelope env = coll_pop(source, tag);
    auto& s = stats();
    ++s.coll_messages_received;
    s.coll_bytes_received += env.payload.size();
    return PendingRecv::take<T>(std::move(env));
  }

  // Concatenating allgather used by allgatherv once counts are known.
  template <class T>
  std::vector<T> allgather_concat(std::span<const T> mine,
                                  const std::vector<std::uint64_t>& counts) {
    auto chunks = gatherv(mine, 0);
    std::vector<T> flat;
    if (rank_ == 0) {
      for (const auto& c : chunks) flat.insert(flat.end(), c.begin(), c.end());
    } else {
      std::uint64_t total = 0;
      for (auto c : counts) total += c;
      flat.resize(total);
    }
    broadcast(std::span<T>(flat), 0);
    return flat;
  }

  std::uint64_t next_seq() {
    ++stats().collectives;
    return seq_++;
  }

  /// One trace span per collective entry, tagged with this rank's local
  /// send volume. Returned by value: Span is move-constructed into the
  /// caller's scope via guaranteed copy elision.
  obs::Span coll_span(const char* name, std::size_t bytes) {
    obs::Span span(name, "comm");
    if (span.active()) {
      span.arg("bytes", static_cast<std::int64_t>(bytes));
      span.arg("ranks", static_cast<std::int64_t>(size()));
    }
    return span;
  }

  /// As above, additionally tagged with the schedule that was selected.
  obs::Span coll_span(const char* name, std::size_t bytes,
                      CollectiveAlgo algo) {
    obs::Span span = coll_span(name, bytes);
    if (span.active()) span.arg("algo", collective_algo_name(algo));
    return span;
  }

  static int phase_of(int mask) {
    int phase = 0;
    while (mask > 1) {
      mask >>= 1;
      ++phase;
    }
    return phase;
  }

  /// Phase slots per collective instance. Sized for the multi-phase
  /// schedules: pairwise alltoall and the ring use one phase per round
  /// (p - 1 rounds), Rabenseifner uses 2·log2(p) + 2. A phase beyond the
  /// slot count wraps; that is safe because within one collective a
  /// wrapped tag only ever re-pairs the same (source, dest) edge, where
  /// FIFO non-overtaking keeps messages ordered.
  static constexpr int kCollPhases = 256;

  int coll_tag(std::uint64_t seq, int phase) const {
    constexpr std::uint64_t kSlots =
        static_cast<std::uint64_t>(kCollTagSpan) / kCollPhases;
    return kMaxUserTag +
           static_cast<int>((seq % kSlots) * kCollPhases +
                            static_cast<std::uint64_t>(phase % kCollPhases));
  }

  // ---- collective algorithm machinery -----------------------------------

  /// Element-wise fold of `incoming` into `acc`.
  template <class T, class Op>
  static void combine(std::span<T> acc, std::span<const T> incoming, Op op) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = op(acc[i], incoming[i]);
    }
  }

  /// Bumps the per-rank selection counter for the schedule that ran.
  void note_algo(CollectiveAlgo algo) {
    auto& s = stats();
    switch (algo) {
      case CollectiveAlgo::kLinear: ++s.algo_linear; break;
      case CollectiveAlgo::kRecursiveDoubling: ++s.algo_recursive_doubling; break;
      case CollectiveAlgo::kRabenseifner: ++s.algo_rabenseifner; break;
      case CollectiveAlgo::kRing: ++s.algo_ring; break;
      case CollectiveAlgo::kBruck: ++s.algo_bruck; break;
      case CollectiveAlgo::kBinomial: ++s.algo_binomial; break;
      case CollectiveAlgo::kPairwise: ++s.algo_pairwise; break;
      case CollectiveAlgo::kAuto: break;  // resolved before this point
    }
  }

  /// Per-phase send volume, visible as a counter track in the trace.
  void note_phase_bytes(std::size_t bytes) {
    obs::counter("comm.coll_phase_bytes", "comm", static_cast<double>(bytes));
  }

  CollectiveAlgo resolve_allreduce(std::size_t bytes,
                                   CollectiveAlgo call) const {
    CollectiveAlgo a = call != CollectiveAlgo::kAuto
                           ? call
                           : ctx_->config().coll.allreduce;
    if (a == CollectiveAlgo::kAuto) {
      a = bytes >= ctx_->config().coll.allreduce_long_bytes
              ? CollectiveAlgo::kRabenseifner
              : CollectiveAlgo::kRecursiveDoubling;
    }
    require<CommError>(a == CollectiveAlgo::kLinear ||
                           a == CollectiveAlgo::kRecursiveDoubling ||
                           a == CollectiveAlgo::kRabenseifner,
                       "allreduce: unsupported algorithm");
    return a;
  }

  CollectiveAlgo resolve_allgather(std::size_t bytes,
                                   CollectiveAlgo call) const {
    CollectiveAlgo a = call != CollectiveAlgo::kAuto
                           ? call
                           : ctx_->config().coll.allgather;
    if (a == CollectiveAlgo::kAuto) {
      a = bytes >= ctx_->config().coll.allgather_long_bytes
              ? CollectiveAlgo::kRing
              : CollectiveAlgo::kBruck;
    }
    require<CommError>(a == CollectiveAlgo::kLinear ||
                           a == CollectiveAlgo::kBruck ||
                           a == CollectiveAlgo::kRing,
                       "allgather: unsupported algorithm");
    return a;
  }

  // broadcast/reduce: binomial by default, kLinear forces the flat
  // root-funneled loop. No policy field — per-call override only.
  CollectiveAlgo resolve_rooted(CollectiveAlgo call, const char* what) const {
    CollectiveAlgo a =
        call == CollectiveAlgo::kAuto ? CollectiveAlgo::kBinomial : call;
    require<CommError>(
        a == CollectiveAlgo::kLinear || a == CollectiveAlgo::kBinomial,
        what, ": unsupported algorithm");
    return a;
  }

  CollectiveAlgo resolve_gather(CollectiveAlgo call) const {
    CollectiveAlgo a =
        call != CollectiveAlgo::kAuto ? call : ctx_->config().coll.gather;
    if (a == CollectiveAlgo::kAuto) a = CollectiveAlgo::kBinomial;
    require<CommError>(
        a == CollectiveAlgo::kLinear || a == CollectiveAlgo::kBinomial,
        "gather/scatter: unsupported algorithm");
    return a;
  }

  CollectiveAlgo resolve_scatter(CollectiveAlgo call) const {
    CollectiveAlgo a =
        call != CollectiveAlgo::kAuto ? call : ctx_->config().coll.scatter;
    if (a == CollectiveAlgo::kAuto) a = CollectiveAlgo::kBinomial;
    require<CommError>(
        a == CollectiveAlgo::kLinear || a == CollectiveAlgo::kBinomial,
        "gather/scatter: unsupported algorithm");
    return a;
  }

  CollectiveAlgo resolve_alltoall(CollectiveAlgo call) const {
    CollectiveAlgo a =
        call != CollectiveAlgo::kAuto ? call : ctx_->config().coll.alltoall;
    if (a == CollectiveAlgo::kAuto) a = CollectiveAlgo::kPairwise;
    require<CommError>(
        a == CollectiveAlgo::kLinear || a == CollectiveAlgo::kPairwise,
        "alltoall: unsupported algorithm");
    return a;
  }

  /// Rabenseifner core among the pof2 surviving ranks: recursive-halving
  /// reduce-scatter, then recursive-doubling allgather over the same chunk
  /// layout. `buf` is this rank's working vector and receives the result.
  template <class T, class Op, class RealOf>
  void rabenseifner_core(std::span<T> buf, Op op, std::uint64_t seq, int pof2,
                         int newrank, RealOf real_of) {
    const std::size_t n = buf.size();
    // pof2 nearly-equal contiguous chunks (first n % pof2 get one extra).
    std::vector<std::size_t> disp(static_cast<std::size_t>(pof2) + 1, 0);
    const std::size_t base = n / static_cast<std::size_t>(pof2);
    const std::size_t extra = n % static_cast<std::size_t>(pof2);
    for (int c = 0; c < pof2; ++c) {
      disp[static_cast<std::size_t>(c) + 1] =
          disp[static_cast<std::size_t>(c)] + base +
          (static_cast<std::size_t>(c) < extra ? 1 : 0);
    }
    auto range = [&](int a, int b) {
      return buf.subspan(disp[static_cast<std::size_t>(a)],
                         disp[static_cast<std::size_t>(b)] -
                             disp[static_cast<std::size_t>(a)]);
    };
    std::vector<T> incoming;
    int phase = 1;
    // Reduce-scatter by recursive halving over the chunk range [lo, hi):
    // each round trades away the half not containing chunk `newrank`.
    int lo = 0, hi = pof2;
    for (int mask = pof2 / 2; mask > 0; mask >>= 1, ++phase) {
      const int dst = real_of(newrank ^ mask);
      const int mid = lo + (hi - lo) / 2;
      const bool keep_low = (newrank & mask) == 0;
      const int slo = keep_low ? mid : lo;
      const int shi = keep_low ? hi : mid;
      const int rlo = keep_low ? lo : mid;
      const int rhi = keep_low ? mid : hi;
      coll_send(std::as_bytes(std::span<const T>(range(slo, shi))), dst,
                coll_tag(seq, phase));
      incoming.resize(range(rlo, rhi).size());
      coll_recv_exact(std::as_writable_bytes(std::span<T>(incoming)), dst,
                      coll_tag(seq, phase));
      note_phase_bytes(range(slo, shi).size_bytes());
      combine(range(rlo, rhi), std::span<const T>(incoming), op);
      lo = rlo;
      hi = rhi;
    }
    // This rank now owns the fully reduced chunk `newrank` (== lo).
    // Allgather by recursive doubling over aligned chunk blocks.
    for (int mask = 1; mask < pof2; mask <<= 1, ++phase) {
      const int newdst = newrank ^ mask;
      const int dst = real_of(newdst);
      const int mylo = newrank & ~(mask - 1);
      const int peerlo = newdst & ~(mask - 1);
      coll_send(std::as_bytes(std::span<const T>(range(mylo, mylo + mask))),
                dst, coll_tag(seq, phase));
      coll_recv_exact(std::as_writable_bytes(range(peerlo, peerlo + mask)),
                      dst, coll_tag(seq, phase));
      note_phase_bytes(range(mylo, mylo + mask).size_bytes());
    }
  }

  std::shared_ptr<Context> ctx_;
  int rank_;
  std::uint64_t seq_ = 0;
  /// Deadline shared by every phase of the collective currently in flight
  /// on this rank; the epoch value means "no collective deadline armed".
  std::chrono::steady_clock::time_point coll_deadline_{};
  /// Posted non-blocking operations (callback receives, ibarrier,
  /// iallreduce), advanced by progress(). Rank-local: each rank drives its
  /// own list from its own thread.
  std::vector<std::unique_ptr<NbOp>> posted_;

  friend class CollFuture;
};

/// Drives progress() until the collective completes; bounded by the
/// configured receive deadline (zero = wait forever), with the same
/// failure refinement as the blocking collectives.
inline void CollFuture::wait() {
  if (ready()) return;
  const auto budget = comm_->ctx_->config().recv_timeout;
  const auto deadline = budget.count() > 0
                            ? std::chrono::steady_clock::now() + budget
                            : std::chrono::steady_clock::time_point::max();
  while (!ready()) {
    comm_->progress();
    if (ready()) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      ++comm_->stats().timeouts;
      throw RecvTimeoutError(util::cat(
          "non-blocking collective exceeded its ", budget.count(),
          " ms deadline"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

inline bool PendingRecv::ready() {
  if (captured_.has_value()) return true;
  auto env = comm_->ctx_->mailbox(comm_->rank_).try_pop_matching(source_, tag_);
  if (!env.has_value()) return false;
  comm_->verify_integrity(*env);
  // The message leaves the mailbox here, so this is where it counts as
  // received — wait() may never run (see the destructor).
  auto& s = comm_->stats();
  ++s.p2p_messages_received;
  s.p2p_bytes_received += env->payload.size();
  captured_ = std::move(*env);
  return true;
}

inline Envelope PendingRecv::wait() {
  require<CommError>(!consumed_, "PendingRecv::wait: already consumed");
  consumed_ = true;
  if (captured_.has_value()) return std::move(*captured_);
  Envelope env = comm_->pop(source_, tag_);
  auto& s = comm_->stats();
  ++s.p2p_messages_received;
  s.p2p_bytes_received += env.payload.size();
  return env;
}

inline PendingRecv::~PendingRecv() {
  if (!captured_.has_value() || consumed_) return;
  // ready() captured a message that was never consumed: put it back at the
  // front of the mailbox (it was the earliest match, so front order is
  // preserved) and back the capture out of the receive stats — the later
  // real receive will count it exactly once.
  auto& s = comm_->stats();
  --s.p2p_messages_received;
  s.p2p_bytes_received -= captured_->payload.size();
  ++s.pending_requeued;
  comm_->ctx_->mailbox(comm_->rank_).requeue(std::move(*captured_));
}

}  // namespace pyhpc::comm
