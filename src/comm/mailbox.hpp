// Per-rank inbound message queue with MPI-style matching.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "comm/message.hpp"

namespace pyhpc::comm {

/// FIFO queue of envelopes addressed to one rank. Matching scans in arrival
/// order, which yields MPI's non-overtaking guarantee for any fixed
/// (source, tag) pair. Blocking pops poll abort/killed flags so that one
/// rank failing (or being fault-killed) cannot wedge the others forever,
/// and can carry a deadline so a lost message surfaces as RecvTimeoutError
/// instead of a hang. pop_matching and probe share one wait loop, the only
/// place a rank blocks on a message.
class Mailbox {
 public:
  /// Flags and deadline a blocking wait observes.
  struct WaitOptions {
    /// World abort flag; waiting throws CommError once it is set.
    const std::atomic<bool>* aborted = nullptr;
    /// The owner rank's own killed flag; waiting throws RankKilledError.
    const std::atomic<bool>* killed = nullptr;
    /// Revocation flag of the communicator (ULFM revoke): checked before
    /// matching, so a revoked communicator delivers nothing — waiting (or
    /// a queued match) surfaces as RevokedError.
    const std::atomic<bool>* revoked = nullptr;
    /// Killed flag of the specific peer this wait expects a message from
    /// (collective-internal receives set it). Checked only when no match
    /// is queued: a message the peer sent before dying is still delivered,
    /// but waiting on a dead peer throws PeerKilledError(peer_rank)
    /// promptly instead of hanging until the deadline or the watchdog.
    const std::atomic<bool>* peer_killed = nullptr;
    int peer_rank = -1;
    /// Zero means wait forever; otherwise RecvTimeoutError past deadline.
    std::chrono::milliseconds timeout{0};
  };

  /// Snapshot of the owner's blocked state, read by the deadlock watchdog.
  /// `epoch` increments whenever the owner enters or leaves a blocking
  /// wait, so two equal non-zero snapshots mean "still stuck in the same
  /// wait".
  struct WaitInfo {
    bool waiting = false;
    int source = 0;
    int tag = 0;
    bool has_deadline = false;
    std::uint64_t epoch = 0;
  };

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message and wakes any waiting receiver.
  void push(Envelope env);

  /// Blocks until a message matching (source, tag) is available, then
  /// removes and returns it. `source`/`tag` may be kAnySource/kAnyTag.
  /// Throws CommError (abort), RankKilledError (owner killed), or
  /// RecvTimeoutError (deadline exceeded) while waiting.
  Envelope pop_matching(int source, int tag, const WaitOptions& opts);

  /// Blocks until a match is available and returns its metadata without
  /// dequeuing (MPI_Probe analogue). Same failure modes as pop_matching.
  Status probe(int source, int tag, const WaitOptions& opts);

  /// Non-blocking probe.
  std::optional<Status> try_probe(int source, int tag);

  /// Wakes all waiters (used during abort and rank kill).
  void interrupt();

  /// Number of queued messages (for tests/instrumentation).
  std::size_t queued() const;

  /// Payload bytes currently buffered in the queue — eager sends buffer at
  /// the receiver, so this is the quantity that grows without bound when a
  /// receiver falls behind.
  std::size_t queued_bytes() const;

  /// Largest queued_bytes() ever observed (folded into CommStats).
  std::size_t highwater_bytes() const;

  /// Largest queue depth (message count) ever observed — exported as the
  /// `comm.mailbox_highwater_messages` gauge in the metrics registry.
  std::size_t highwater_messages() const;

  /// What (if anything) the owner is currently blocked on.
  WaitInfo wait_info() const;

 private:
  static bool matches(const Envelope& env, int source, int tag) {
    return (source == kAnySource || env.source == source) &&
           (tag == kAnyTag || env.tag == tag);
  }

  // Finds the first queued match; caller must hold mu_.
  std::deque<Envelope>::iterator find_locked(int source, int tag);

  // The wait loop under pop_matching and probe: with `lock` held on mu_,
  // waits until a match is queued and returns it (still locked), or
  // throws what `opts` calls for. `verb` ("recv"/"probe") opens the error
  // texts.
  std::deque<Envelope>::iterator wait_for_match(
      std::unique_lock<std::mutex>& lock, int source, int tag,
      const WaitOptions& opts, const char* verb);

  // Marks the owner blocked for the lifetime of a wait; ctor/dtor run with
  // mu_ held (construct after the unique_lock so unwind order is correct).
  struct WaitScope {
    WaitScope(Mailbox& mb, int source, int tag, bool has_deadline);
    ~WaitScope();
    Mailbox& mb;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t highwater_bytes_ = 0;
  std::size_t highwater_messages_ = 0;
  WaitInfo wait_;  // guarded by mu_
};

}  // namespace pyhpc::comm
