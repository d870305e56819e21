// Shared state for one communicator "world": the mailboxes of every rank,
// the abort flag, per-rank stats, the world settings (CommConfig),
// failure-containment state (killed ranks, deadlock report), and a registry
// used to hand sub-contexts from the creating rank to the other members
// during split().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/buffer.hpp"
#include "comm/config.hpp"
#include "comm/mailbox.hpp"
#include "comm/stats.hpp"

namespace pyhpc::comm {

class Context {
 public:
  explicit Context(int nranks, CommConfig config = {});

  int size() const { return static_cast<int>(mailboxes_.size()); }

  const CommConfig& config() const { return config_; }

  Mailbox& mailbox(int rank);

  CommStats& stats(int rank);

  /// Shared pooled arena serving every rank's small eager copies (the
  /// blocks are thread-safe ref-counted, so sharing one pool across rank
  /// threads is safe and maximizes reuse).
  BufferArena& arena() { return arena_; }

  /// The single choke point every send funnels through: stamps the
  /// integrity checksum, consults the fault injector, filters traffic
  /// from/to killed ranks, and finally enqueues at `dest`'s mailbox.
  void deliver(int dest, Envelope env);

  /// Set by the runner when any rank throws; blocking waits observe it.
  std::atomic<bool>& abort_flag() { return aborted_; }
  const std::atomic<bool>& abort_flag() const { return aborted_; }

  /// Marks the context aborted and wakes every blocked receiver, here and
  /// in every context split() or shrink() made from it (recursively).
  void abort();

  // ---- failure containment ---------------------------------------------

  /// Simulated crash of one rank: its sends are swallowed, its blocking
  /// waits throw RankKilledError, and the rest of the world keeps running.
  void kill_rank(int rank);
  bool is_killed(int rank) const;
  const std::atomic<bool>& killed_flag(int rank) const;

  // ---- ULFM-style recovery ---------------------------------------------

  /// Revokes the communicator (MPI_Comm_revoke analogue): every blocked
  /// receive/probe on it throws RevokedError and future operations fail,
  /// so all survivors fall out of interrupted collectives and can join
  /// agree()/shrink(). Irrevocable; recovery produces a fresh child
  /// context via shrink.
  void revoke();
  bool is_revoked() const {
    return revoked_.load(std::memory_order_acquire);
  }
  const std::atomic<bool>& revoked_flag() const { return revoked_; }

  /// Fault-tolerant agreement on the known-dead set (MPI_Comm_agree
  /// analogue, specialised to the dead-rank bitmask). Every live rank
  /// calls it once per recovery round with the OR-mask of ranks it knows
  /// to be dead (bit r = rank r); the call returns the same value on
  /// every participant: the OR of all contributions plus every rank that
  /// is killed or already done. It runs over shared context state, not
  /// messages, because survivors of an interrupted collective have
  /// divergent sequence counters — and it tolerates failures by
  /// construction: a rank that dies mid-agreement is excused from the
  /// round and folded into the result. `round_out` (optional) receives
  /// the 0-based round index, used by shrink() to key the child registry.
  /// Requires size() <= 64.
  std::uint64_t agree(int rank, std::uint64_t local_mask,
                      std::uint64_t* round_out = nullptr);

  /// The runner marks a rank done when its body returns (or dies); the
  /// watchdog only considers not-done ranks when looking for deadlock.
  void mark_done(int rank);
  bool is_done(int rank) const;

  /// Watchdog verdict: records the who-waits-on-whom report (first writer
  /// wins) and aborts the world; blocked ranks then throw DeadlockError.
  void fail_deadlock(std::string report);
  bool deadlocked() const { return deadlocked_.load(std::memory_order_acquire); }
  std::string deadlock_report() const;

  /// split() support: the lowest-ranked member of each colour group creates
  /// the child context and publishes it under (sequence, colour); the other
  /// members block until it appears. The key is unique because collectives
  /// execute in program order on every rank. A child published after this
  /// context aborted is aborted too.
  void publish_child(std::uint64_t seq, int color,
                     std::shared_ptr<Context> child);
  std::shared_ptr<Context> wait_child(std::uint64_t seq, int color);

  /// Non-blocking lookup in the child registry (shrink() polls it so a
  /// creator dying before publishing surfaces as PeerKilledError instead
  /// of a hang).
  std::shared_ptr<Context> try_get_child(std::uint64_t seq, int color);

 private:
  CommConfig config_;
  BufferArena arena_;  // declared before the mailboxes that hold its blocks
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> stats_;
  std::atomic<bool> aborted_{false};
  std::unique_ptr<std::atomic<bool>[]> killed_;
  std::unique_ptr<std::atomic<bool>[]> done_;

  std::atomic<bool> deadlocked_{false};
  mutable std::mutex deadlock_mu_;
  std::string deadlock_report_;

  std::atomic<bool> revoked_{false};

  // agree() state: rounds complete in order; results are kept so a slow
  // rank can pick up a round that finished without it blocking the next.
  std::mutex agree_mu_;
  std::condition_variable agree_cv_;
  std::vector<std::uint64_t> agree_results_;  // result per completed round
  std::uint64_t agree_pending_mask_ = 0;      // contributions, current round
  std::uint64_t agree_contributed_ = 0;       // bit per contributing rank
  std::vector<std::uint64_t> agree_calls_;    // per-rank agree() call count

  std::mutex children_mu_;
  std::condition_variable children_cv_;
  std::map<std::pair<std::uint64_t, int>, std::shared_ptr<Context>> children_;
};

}  // namespace pyhpc::comm
