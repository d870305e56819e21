#include "comm/context.hpp"

#include <chrono>
#include <thread>

#include "comm/fault.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::comm {

Context::Context(int nranks, CommConfig config)
    : config_(std::move(config)) {
  require(nranks >= 1, "Context: need at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  stats_.resize(static_cast<std::size_t>(nranks));
  killed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(nranks));
  done_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    killed_[i].store(false, std::memory_order_relaxed);
    done_[i].store(false, std::memory_order_relaxed);
  }
  agree_calls_.assign(static_cast<std::size_t>(nranks), 0);
}

Mailbox& Context::mailbox(int rank) {
  require<CommError>(rank >= 0 && rank < size(),
                     "Context::mailbox: rank ", rank,
                     " out of range [0, ", size(), ")");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

CommStats& Context::stats(int rank) {
  require<CommError>(rank >= 0 && rank < size(),
                     "Context::stats: rank out of range");
  return stats_[static_cast<std::size_t>(rank)];
}

void Context::deliver(int dest, Envelope env) {
  require<CommError>(dest >= 0 && dest < size(),
                     "Context::deliver: rank ", dest,
                     " out of range [0, ", size(), ")");
  // A dead rank sends nothing, and messages to the dead are never read —
  // drop both so the simulated crash does not leak buffered traffic.
  if (is_killed(env.source) || is_killed(dest)) return;

  obs::Span span("deliver", "comm");
  if (span.active()) {
    span.arg("dest", static_cast<std::int64_t>(dest));
    span.arg("tag", static_cast<std::int64_t>(env.tag));
    span.arg("bytes", static_cast<std::int64_t>(env.payload.size()));
  }

  env.checksum = envelope_checksum(env);

  if (FaultInjector* inj = config_.injector.get()) {
    if (auto d = inj->intercept(env.source, dest, env.tag)) {
      // Every fired rule leaves a trace marker so a red chaos run can be
      // reconstructed fault-by-fault (pairs with the faults.seed metric).
      obs::Instant fired("fault.fired", "faults");
      if (fired.active()) {
        fired.arg("kind", fault_kind_name(d->kind));
        fired.arg("src", static_cast<std::int64_t>(env.source));
        fired.arg("dst", static_cast<std::int64_t>(dest));
        fired.arg("tag", static_cast<std::int64_t>(env.tag));
        fired.arg("rule", static_cast<std::int64_t>(d->rule));
        fired.finish();
      }
      switch (d->kind) {
        case FaultKind::kDrop:
          return;
        case FaultKind::kDelay:
          // Sender-side stall: models link backpressure and keeps delivery
          // deterministic (no detached reordering threads).
          std::this_thread::sleep_for(d->delay);
          break;
        case FaultKind::kDuplicate:
          mailboxes_[static_cast<std::size_t>(dest)]->push(env);
          break;
        case FaultKind::kCorrupt:
          // Flip payload bits *after* checksumming so the receiver detects
          // the damage; empty payloads get their checksum flipped instead.
          // Zero-copy payloads share bytes with the sender (and with any
          // duplicate already queued), so tampering must clone first —
          // mutating in place would corrupt live sender data, not just
          // this delivery.
          if (env.payload.empty()) {
            env.checksum = ~env.checksum;
          } else {
            Buffer tampered = Buffer::copy_of(
                std::span<const std::byte>(env.payload.data(),
                                           env.payload.size()));
            tampered.mutable_data()[tampered.size() / 2] ^= std::byte{0xFF};
            env.payload = std::move(tampered);
          }
          break;
        case FaultKind::kKillRank:
          // The crash takes the in-flight message down with it.
          kill_rank(d->victim == kAnyRank ? dest : d->victim);
          return;
      }
    }
  }
  mailboxes_[static_cast<std::size_t>(dest)]->push(std::move(env));
}

void Context::abort() {
  aborted_.store(true, std::memory_order_relaxed);
  for (auto& mb : mailboxes_) mb->interrupt();
  {
    // Ranks blocked in a split() or shrink() child wait on the child's
    // flags, so the abort goes down the registry, recursively.
    std::lock_guard<std::mutex> lock(children_mu_);
    for (auto& entry : children_) entry.second->abort();
  }
  children_cv_.notify_all();
  agree_cv_.notify_all();
}

void Context::kill_rank(int rank) {
  require<CommError>(rank >= 0 && rank < size(),
                     "Context::kill_rank: rank out of range");
  killed_[rank].store(true, std::memory_order_release);
  // Wake everyone: the victim observes its own death, and peers blocked in
  // collective-internal receives on the victim detect it promptly instead
  // of waiting out a poll period.
  for (auto& mb : mailboxes_) mb->interrupt();
  agree_cv_.notify_all();
}

void Context::revoke() {
  revoked_.store(true, std::memory_order_release);
  // Wake every blocked receiver so it observes the revocation.
  for (auto& mb : mailboxes_) mb->interrupt();
}

std::uint64_t Context::agree(int rank, std::uint64_t local_mask,
                             std::uint64_t* round_out) {
  require<CommError>(rank >= 0 && rank < size(),
                     "Context::agree: rank out of range");
  require<CommError>(size() <= 64,
                     "Context::agree: dead-set bitmask supports at most 64 "
                     "ranks");
  std::unique_lock<std::mutex> lock(agree_mu_);
  const std::uint64_t round = agree_calls_[static_cast<std::size_t>(rank)]++;
  if (round_out != nullptr) *round_out = round;
  const auto bit = [](int r) { return std::uint64_t{1} << r; };
  for (;;) {
    if (killed_[rank].load(std::memory_order_acquire)) {
      throw RankKilledError("agree on a killed rank (fault injection)");
    }
    if (aborted_.load(std::memory_order_relaxed)) {
      throw CommError("agree aborted: another rank failed");
    }
    const std::uint64_t completed = agree_results_.size();
    if (completed > round) {
      return agree_results_[static_cast<std::size_t>(round)];
    }
    if (completed == round) {
      if ((agree_contributed_ & bit(rank)) == 0) {
        agree_contributed_ |= bit(rank);
        agree_pending_mask_ |= local_mask;
      }
      // The round completes once every rank has contributed or is excused
      // (killed or already returned from its body) — so a rank dying
      // mid-agreement cannot wedge the survivors.
      bool complete = true;
      for (int r = 0; r < size() && complete; ++r) {
        if ((agree_contributed_ & bit(r)) == 0 && !is_killed(r) &&
            !is_done(r)) {
          complete = false;
        }
      }
      if (complete) {
        std::uint64_t result = agree_pending_mask_;
        for (int r = 0; r < size(); ++r) {
          if (is_killed(r) || is_done(r)) result |= bit(r);
        }
        agree_results_.push_back(result);
        agree_pending_mask_ = 0;
        agree_contributed_ = 0;
        agree_cv_.notify_all();
        return result;
      }
    }
    // completed < round: this rank is a full recovery ahead of a laggard;
    // wait for the earlier round to finish first.
    agree_cv_.wait_for(lock, std::chrono::milliseconds(25));
  }
}

bool Context::is_killed(int rank) const {
  if (rank < 0 || rank >= size()) return false;
  return killed_[rank].load(std::memory_order_acquire);
}

const std::atomic<bool>& Context::killed_flag(int rank) const {
  require<CommError>(rank >= 0 && rank < size(),
                     "Context::killed_flag: rank out of range");
  return killed_[rank];
}

void Context::mark_done(int rank) {
  if (rank < 0 || rank >= size()) return;
  done_[rank].store(true, std::memory_order_release);
}

bool Context::is_done(int rank) const {
  if (rank < 0 || rank >= size()) return false;
  return done_[rank].load(std::memory_order_acquire);
}

void Context::fail_deadlock(std::string report) {
  {
    std::lock_guard<std::mutex> lock(deadlock_mu_);
    if (deadlocked_.load(std::memory_order_relaxed)) return;
    deadlock_report_ = std::move(report);
  }
  deadlocked_.store(true, std::memory_order_release);
  abort();
}

std::string Context::deadlock_report() const {
  std::lock_guard<std::mutex> lock(deadlock_mu_);
  return deadlock_report_;
}

void Context::publish_child(std::uint64_t seq, int color,
                            std::shared_ptr<Context> child) {
  {
    std::lock_guard<std::mutex> lock(children_mu_);
    // Under the lock abort() walks the registry with, so a child published
    // after an abort starts aborted and none is missed.
    if (aborted_.load(std::memory_order_relaxed)) child->abort();
    children_[{seq, color}] = std::move(child);
  }
  children_cv_.notify_all();
}

std::shared_ptr<Context> Context::try_get_child(std::uint64_t seq, int color) {
  std::lock_guard<std::mutex> lock(children_mu_);
  auto it = children_.find(std::make_pair(seq, color));
  return it != children_.end() ? it->second : nullptr;
}

std::shared_ptr<Context> Context::wait_child(std::uint64_t seq, int color) {
  std::unique_lock<std::mutex> lock(children_mu_);
  const auto key = std::make_pair(seq, color);
  for (;;) {
    auto it = children_.find(key);
    if (it != children_.end()) return it->second;
    if (aborted_.load(std::memory_order_relaxed)) {
      throw CommError("split aborted: another rank failed");
    }
    children_cv_.wait_for(lock, std::chrono::milliseconds(25));
  }
}

}  // namespace pyhpc::comm
