// Communicator: the per-rank handle to a message-passing world.
//
// Semantics follow MPI (see the LLNL MPI model this substrate reproduces):
//  - two-sided, tag + source matched point-to-point messages;
//  - non-overtaking delivery for a fixed (source, dest) pair;
//  - collectives must be entered by every rank of the communicator in the
//    same program order (they are sequenced with an internal tag space);
//  - sends are always eager/buffered, so a send never deadlocks;
//  - every receive blocks, at the point the caller needs the data.
//
// All typed operations require trivially-copyable element types; richer
// payloads (strings, record batches) use the byte/string interfaces or the
// serialization helpers in odin/seamless.
//
// The typed API in this header is a set of thin wrappers. Every collective
// schedule, and every blocking receive, lives once in communicator.cpp as
// non-template code over byte spans (MPI's untyped buffer/count/op core
// under typed bindings): a wrapper views its buffers as bytes and, for a
// reduction, passes one fold callback instantiated per (T, Op).
#pragma once

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/context.hpp"
#include "comm/message.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::comm {

/// Typed view of a received payload: moves an adopted std::vector<T> out
/// when the buffer solely owns it (the zero-copy fast path), else copies.
template <class T>
std::vector<T> payload_to_vector(Buffer&& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (auto v = payload.take_vector<T>()) return std::move(*v);
  require<CommError>(payload.size() % sizeof(T) == 0,
                     "recv: payload size not a multiple of element size");
  std::vector<T> out(payload.size() / sizeof(T));
  // An empty payload has a null data() pointer, and memcpy with a null
  // source is UB even for size 0.
  if (!payload.empty()) {
    std::memcpy(out.data(), payload.data(), payload.size());
  }
  return out;
}

class Communicator {
 public:
  Communicator(std::shared_ptr<Context> ctx, int rank)
      : ctx_(std::move(ctx)), rank_(rank) {
    require<CommError>(rank_ >= 0 && rank_ < ctx_->size(),
                       "Communicator: rank out of range");
  }

  int rank() const { return rank_; }
  int size() const { return ctx_->size(); }

  /// True when both handles belong to one world: a copy shares it, while
  /// split(), duplicate() and shrink() each make a new one. Handles of one
  /// world number the same ranks the same way, so a layout planned on one
  /// is valid on the other. Local: no communication.
  bool shares_context(const Communicator& other) const {
    return ctx_ == other.ctx_;
  }

  CommStats& stats() { return ctx_->stats(rank_); }
  const CommStats& stats() const { return ctx_->stats(rank_); }

  /// Sums every rank's counters (call after the parallel region ends, or
  /// from a barrier-synchronized point).
  CommStats aggregate_stats() const;

  // ---- point-to-point: bytes ------------------------------------------

  void send_bytes(std::span<const std::byte> data, int dest, int tag) {
    check_user_tag(tag);
    send_bytes_internal(data, dest, tag, /*internal=*/false);
  }

  /// Blocking receive into a freshly sized vector.
  Status recv_bytes(std::vector<std::byte>& out, int source = kAnySource,
                    int tag = kAnyTag);

  /// Blocking probe: metadata of the next matching message. Honours the
  /// CommConfig receive deadline (RecvTimeoutError past it).
  Status probe(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking probe. Same failure semantics as probe(): a killed or
  /// revoked caller throws instead of polling forever, an aborted world
  /// surfaces the refined error (DeadlockError when the watchdog fired),
  /// and a specific dead peer with nothing queued throws PeerKilledError.
  std::optional<Status> iprobe(int source = kAnySource, int tag = kAnyTag);

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
    return recv_exact(std::as_writable_bytes(buf), source, tag);
  }

  /// Variable-size receive.
  template <class T>
  std::vector<T> recv_vector(int source = kAnySource, int tag = kAnyTag,
                             Status* status_out = nullptr) {
    Envelope env = pop(source, tag, Traffic::kP2P);
    if (status_out != nullptr) {
      *status_out = Status{env.source, env.tag, env.payload.size()};
    }
    return payload_to_vector<T>(std::move(env.payload));
  }

  template <class T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    recv(std::span<T>(&value, 1), source, tag);
    return value;
  }

  void send_string(const std::string& text, int dest, int tag);
  std::string recv_string(int source = kAnySource, int tag = kAnyTag);

  // ---- deadline-bounded receives ----------------------------------------
  // A per-call deadline overriding CommConfig::recv_timeout
  // (RecvTimeoutError past it); the ODIN driver's ack/retry protocol.

  Status recv_bytes_within(std::chrono::milliseconds timeout,
                           std::vector<std::byte>& out,
                           int source = kAnySource, int tag = kAnyTag);

  template <class T>
  T recv_value_within(std::chrono::milliseconds timeout,
                      int source = kAnySource, int tag = kAnyTag) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    recv_exact(std::as_writable_bytes(std::span<T>(&value, 1)), source, tag,
               timeout);
    return value;
  }

  // ---- framework-internal point-to-point --------------------------------
  // Subsystem protocols (ODIN halo exchange and similar) use reserved tags
  // >= kInternalP2PBase, apart from user and collective traffic.
  // Accounting is ordinary p2p.

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

  /// Variable-size internal receive (Import packs): moves an adopted
  /// vector back out, like recv_vector.
  template <class T>
  std::vector<T> recv_vector_internal(int source, int tag) {
    check_internal_tag(tag);
    return payload_to_vector<T>(pop(source, tag, Traffic::kP2P).payload);
  }

  // ---- failure observability --------------------------------------------

  /// True when fault injection has killed `rank` (drivers use this to turn
  /// a missing ack into WorkerLostError instead of retrying forever).
  bool rank_dead(int rank) const { return ctx_->is_killed(rank); }

  /// Payload bytes currently buffered in this rank's mailbox.
  std::size_t queued_bytes() const {
    return ctx_->mailbox(rank_).queued_bytes();
  }

  // ---- collectives ------------------------------------------------------
  // Every collective must be entered by all ranks in the same order.
  // Reduction functors must be associative and commutative. `algo` picks
  // the schedule for one call and must be the same on every rank; kAuto
  // chooses from the payload size alone (DESIGN.md §2.1).

  /// Peers of the dissemination barrier at round distance `k`: every rank
  /// signals (rank + k) mod p and waits on (rank - k) mod p.
  static int dissemination_send_peer(int rank, int k, int p) {
    return (rank + k % p) % p;
  }
  static int dissemination_recv_peer(int rank, int k, int p) {
    return ((rank - k) % p + p) % p;
  }

  void barrier();

  /// Broadcast of a fixed-size buffer: binomial tree (kLinear forces the
  /// flat root-funneled reference).
  template <class T>
  void broadcast(std::span<T> data, int root,
                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    broadcast_bytes(std::as_writable_bytes(data), root, algo);
  }

  template <class T>
  T broadcast_value(T value, int root,
                    CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    broadcast(std::span<T>(&value, 1), root, algo);
    return value;
  }

  /// Broadcast of a variable-length string (length first, then bytes).
  std::string broadcast_string(const std::string& text, int root);

  /// Element-wise reduction to `root` (binomial tree; kLinear forces the
  /// flat every-rank-sends-to-root funnel). `out` must be sized like `in`
  /// on the root; other ranks may pass an empty span.
  template <class T, class Op>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root,
              CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    reduce_bytes(std::as_bytes(in), std::as_writable_bytes(out), sizeof(T),
                 fold_of<T>(op), root, algo);
  }

  template <class T, class Op>
  T reduce_value(T value, Op op, int root) {
    T out{};
    reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, root);
    return out;  // meaningful only on root
  }

  /// Allreduce. kAuto picks recursive doubling below 4096 payload bytes
  /// and Rabenseifner (reduce-scatter + allgather) at or above; kLinear
  /// forces the root-funneled reduce+broadcast reference. `out` must be
  /// sized like `in` on every rank.
  template <class T, class Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op,
                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    allreduce_bytes(std::as_bytes(in), std::as_writable_bytes(out),
                    sizeof(T), fold_of<T>(op), algo);
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
    static_assert(std::is_trivially_copyable_v<T>);
    scan_inclusive_bytes(std::as_writable_bytes(std::span<T>(&value, 1)),
                         fold_of<T>(op));
    return value;
  }

  /// Exclusive prefix scan; rank 0 receives `identity`.
  template <class T, class Op>
  T scan_exclusive(T value, Op op, T identity) {
    static_assert(std::is_trivially_copyable_v<T>);
    scan_exclusive_bytes(std::as_writable_bytes(std::span<T>(&value, 1)),
                         std::as_bytes(std::span<const T>(&identity, 1)),
                         fold_of<T>(op));
    return value;
  }

  /// Equal-count gather into rank-ordered contiguous output on root
  /// (binomial tree; kLinear forces the root loop). `all` is left as it
  /// is on the other ranks.
  template <class T>
  void gather(std::span<const T> mine, std::vector<T>& all, int root,
              CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rank_ == root) all.assign(mine.size() * nranks(), T{});
    gather_bytes(std::as_bytes(mine),
                 std::as_writable_bytes(std::span<T>(all)), root, algo);
  }

  /// Variable-count gather; returns per-rank chunks on root (empty vector on
  /// non-roots).
  template <class T>
  std::vector<std::vector<T>> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<T>> chunks(rank_ == root ? nranks() : 0);
    gatherv_bytes(std::as_bytes(mine), root, store_into(chunks));
    return chunks;
  }

  /// Every rank gets the rank-ordered concatenation. kAuto picks Bruck's
  /// log-round schedule below 4096 bytes per rank and the ring at or
  /// above; kLinear forces the gather-to-0 + broadcast reference. Counts
  /// must match on every rank.
  template <class T>
  std::vector<T> allgather(std::span<const T> mine,
                           CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> all(mine.size() * nranks());
    allgather_bytes(std::as_bytes(mine),
                    std::as_writable_bytes(std::span<T>(all)), algo);
    return all;
  }

  template <class T>
  std::vector<T> allgather_value(const T& value,
                                 CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    return allgather(std::span<const T>(&value, 1), algo);
  }

  /// Variable-count allgather; every rank gets all per-rank chunks. One
  /// fixed-size round of counts (Bruck) followed by a ring of the variable
  /// chunks; kLinear forces the root-funneled reference.
  template <class T>
  std::vector<std::vector<T>> allgatherv(
      std::span<const T> mine, CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<T>> chunks(nranks());
    allgatherv_bytes(std::as_bytes(mine), store_into(chunks), algo);
    return chunks;
  }

  /// Equal-count scatter from root's rank-ordered buffer (binomial tree:
  /// the root hands each child its whole subtree's blocks in one message;
  /// kLinear forces p-1 sends at the root).
  template <class T>
  void scatter(std::span<const T> all, std::span<T> mine, int root,
               CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    scatter_bytes(std::as_bytes(all), std::as_writable_bytes(mine), root,
                  algo);
  }

  /// Variable-count scatter; `parts` is consulted only on root.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& parts, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> mine;
    scatterv_bytes(
        parts.size(),
        [&parts](int r) {
          return std::as_bytes(
              std::span<const T>(parts[static_cast<std::size_t>(r)]));
        },
        root,
        [&mine](int, std::size_t bytes) { return resize_for(mine, bytes); });
    return mine;
  }

  /// Equal-count personalized all-to-all: sendbuf holds `count` elements per
  /// destination rank in rank order; recvbuf likewise per source. Linear
  /// schedule (every rank sends all its blocks, then receives).
  template <class T>
  void alltoall(std::span<const T> sendbuf, std::span<T> recvbuf,
                CollectiveAlgo algo = CollectiveAlgo::kAuto) {
    static_assert(std::is_trivially_copyable_v<T>);
    alltoall_bytes(std::as_bytes(sendbuf), std::as_writable_bytes(recvbuf),
                   sizeof(T), algo);
  }

  /// Variable-count personalized all-to-all — the shuffle primitive under
  /// ODIN's map-reduce and redistribution. Consumes the send parts:
  /// parts[r] goes to rank r, moved into its envelope instead of copied,
  /// and the receiver moves it back out, so payloads travel by pointer
  /// swap end to end. Returns one part per source: element [r] came from
  /// rank r. Linear schedule: every part is handed over before any
  /// blocking receive, so sends stay non-blocking.
  template <class T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>>&& parts) {
    static_assert(std::is_trivially_copyable_v<T>);
    require<CommError>(parts.size() == nranks(),
                       "alltoallv: need one part per destination rank");
    std::vector<Buffer> wire(parts.size());
    std::size_t send_bytes = 0;
    for (std::size_t r = 0; r < parts.size(); ++r) {
      send_bytes += parts[r].size() * sizeof(T);
      if (r != me()) wire[r] = Buffer::adopt(std::move(parts[r]));
    }
    alltoallv_bytes(wire, send_bytes);
    for (std::size_t r = 0; r < parts.size(); ++r) {
      if (r != me()) {
        parts[r] = payload_to_vector<T>(std::move(wire[r]));
      }
    }
    return std::move(parts);  // this rank's own part never left
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
  /// dead), called once per recovery round by every survivor: all get the
  /// OR of every `local_dead_mask` plus the killed (or returned) ranks.
  /// Works on a revoked communicator; ranks dying mid-agreement are folded
  /// in. Bits at or above size() pass through (kAgreeFailureFlag).
  std::uint64_t agree(std::uint64_t local_dead_mask = 0) {
    return ctx_->agree(rank_, local_dead_mask);
  }

  /// Agrees on the dead set and returns a dense re-ranked communicator of
  /// the survivors (MPI_Comm_shrink analogue), in their relative order. The
  /// fresh child inherits the parent's config *including the fault
  /// injector* (its rank-specific rules then address renumbered ranks).
  /// Throws PeerKilledError if the lowest survivor dies before publishing
  /// the child (call shrink() again: the next round excludes it).
  Communicator shrink();

 private:
  /// Element-wise reduction over raw bytes — the one callback every
  /// reduction schedule folds with: acc[i] = op(acc[i], in[i]) for `count`
  /// elements of the type it was made for.
  using Fold =
      std::function<void(std::byte* acc, const std::byte* in, std::size_t)>;
  /// Storage for one received part of a variable-size collective: sizes
  /// rank r's part for `bytes` and returns it as writable bytes.
  using PartStore = std::function<std::span<std::byte>(int r, std::size_t)>;
  /// Root-side view of the part a variable-size scatter sends to rank r.
  using PartView = std::function<std::span<const std::byte>(int r)>;
  /// Which receive counters a message books.
  enum class Traffic : std::uint8_t { kP2P, kColl };

  template <class T, class Op>
  static void fold_elements(Op& op, std::byte* acc, const std::byte* in,
                            std::size_t count) {
    // memcpy, not a cast: the bytes may come straight from a payload.
    for (std::size_t i = 0; i < count; ++i) {
      T a{}, b{};
      std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
      std::memcpy(&b, in + i * sizeof(T), sizeof(T));
      a = op(a, b);
      std::memcpy(acc + i * sizeof(T), &a, sizeof(T));
    }
  }
  template <class T, class Op>
  static Fold fold_of(Op& op) {
    return [&op](std::byte* acc, const std::byte* in, std::size_t n) {
      fold_elements<T>(op, acc, in, n);
    };
  }
  template <class T>
  static std::span<std::byte> resize_for(std::vector<T>& part,
                                         std::size_t bytes) {
    require<CommError>(bytes % sizeof(T) == 0, "collective: a part of ",
                       bytes, " bytes is not a whole number of ", sizeof(T),
                       "-byte elements");
    part.resize(bytes / sizeof(T));
    return std::as_writable_bytes(std::span<T>(part));
  }
  template <class T>
  static PartStore store_into(std::vector<std::vector<T>>& chunks) {
    return [&chunks](int r, std::size_t bytes) {
      return resize_for(chunks[static_cast<std::size_t>(r)], bytes);
    };
  }
  std::size_t nranks() const { return static_cast<std::size_t>(size()); }
  std::size_t me() const { return static_cast<std::size_t>(rank_); }

  void check_user_tag(int tag) const;
  void check_internal_tag(int tag) const;

  // ---- receive and send core (communicator.cpp) -------------------------

  using Bytes = std::span<std::byte>;
  using ConstBytes = std::span<const std::byte>;
  using Timeout = std::optional<std::chrono::milliseconds>;

  /// The one blocking receive: waits until `timeout` (p2p; default
  /// CommConfig::recv_timeout) or what is left of the shared collective
  /// budget (kColl), fails fast when the expected peer dies, refines abort
  /// errors, then verifies integrity and books the receive.
  Envelope pop(int source, int tag, Traffic traffic, Timeout timeout = {});
  /// Integrity check plus receive stats for a message leaving the mailbox.
  void accept(const Envelope& env, Traffic traffic);
  Status recv_exact(Bytes buf, int source, int tag, Timeout timeout = {});
  Mailbox::WaitOptions wait_options(Timeout timeout) const;
  [[noreturn]] void rethrow_refined() const;

  void send_buffer(Buffer payload, int dest, int tag, bool internal);
  void send_bytes_internal(ConstBytes data, int dest, int tag, bool internal);

  // ---- byte-level collective core (communicator.cpp) --------------------
  // `esz` is the element size, where a schedule folds elements or splits a
  // buffer at element boundaries.

  void broadcast_bytes(Bytes data, int root, CollectiveAlgo algo);
  void reduce_bytes(ConstBytes in, Bytes out, std::size_t esz,
                    const Fold& fold, int root, CollectiveAlgo algo);
  void allreduce_bytes(ConstBytes in, Bytes out, std::size_t esz,
                       const Fold& fold, CollectiveAlgo algo);
  void scan_inclusive_bytes(Bytes value, const Fold& fold);
  void scan_exclusive_bytes(Bytes value, ConstBytes identity,
                            const Fold& fold);
  void gather_bytes(ConstBytes mine, Bytes all, int root, CollectiveAlgo algo);
  void gatherv_bytes(ConstBytes mine, int root, const PartStore& store);
  void allgather_bytes(ConstBytes mine, Bytes all, CollectiveAlgo algo);
  void allgatherv_bytes(ConstBytes mine, const PartStore& store,
                        CollectiveAlgo algo);
  void scatter_bytes(ConstBytes all, Bytes mine, int root, CollectiveAlgo algo);
  void scatterv_bytes(std::size_t nparts, const PartView& part, int root,
                      const PartStore& store);
  void alltoall_bytes(ConstBytes sendbuf, Bytes recvbuf, std::size_t esz,
                      CollectiveAlgo algo);
  /// Sends wire[r] to rank r (moved, zero-copy) and replaces it with the
  /// payload rank r sent here; this rank's own slot is left alone.
  void alltoallv_bytes(std::vector<Buffer>& wire, std::size_t send_bytes);

  // The barrier and the recursive-doubling/Rabenseifner allreduce are lists
  // of send/receive rounds over one working buffer, run by run_schedule.
  struct Schedule;
  class CollectiveDeadline;

  void run_schedule(const Schedule& s);
  std::uint64_t next_seq();  // one per collective, counted in `collectives`

  std::shared_ptr<Context> ctx_;
  int rank_;
  std::uint64_t seq_ = 0;
  /// Deadline shared by every phase of the collective currently in flight
  /// on this rank; the epoch value means "no collective deadline armed".
  std::chrono::steady_clock::time_point coll_deadline_{};
};

}  // namespace pyhpc::comm
