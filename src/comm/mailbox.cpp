#include "comm/mailbox.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::comm {

namespace {
// Poll period for blocking waits; short enough that aborts surface quickly,
// long enough to avoid spinning.
constexpr auto kPollPeriod = std::chrono::milliseconds(25);

std::string describe_match(int source, int tag) {
  return util::cat("(source ",
                   source == kAnySource ? std::string("any")
                                        : std::to_string(source),
                   ", tag ",
                   tag == kAnyTag ? std::string("any") : std::to_string(tag),
                   ")");
}

bool flag_set(const std::atomic<bool>* flag) {
  return flag != nullptr && flag->load(std::memory_order_relaxed);
}
}  // namespace

Mailbox::WaitScope::WaitScope(Mailbox& mb_in, int source, int tag,
                              bool has_deadline)
    : mb(mb_in) {
  mb.wait_.waiting = true;
  mb.wait_.source = source;
  mb.wait_.tag = tag;
  mb.wait_.has_deadline = has_deadline;
  ++mb.wait_.epoch;
}

Mailbox::WaitScope::~WaitScope() {
  mb.wait_.waiting = false;
  ++mb.wait_.epoch;
}

void Mailbox::push(Envelope env) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued_bytes_ += env.payload.size();
    highwater_bytes_ = std::max(highwater_bytes_, queued_bytes_);
    queue_.push_back(std::move(env));
    highwater_messages_ = std::max(highwater_messages_, queue_.size());
  }
  cv_.notify_all();
}

std::deque<Envelope>::iterator Mailbox::find_locked(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, source, tag)) return it;
  }
  return queue_.end();
}

std::deque<Envelope>::iterator Mailbox::wait_for_match(
    std::unique_lock<std::mutex>& lock, int source, int tag,
    const WaitOptions& opts, const char* verb) {
  const bool bounded = opts.timeout.count() > 0;
  const auto deadline = bounded
                            ? std::chrono::steady_clock::now() + opts.timeout
                            : std::chrono::steady_clock::time_point::max();
  WaitScope scope(*this, source, tag, bounded);
  for (;;) {
    // Revocation poisons the communicator outright: even a queued match is
    // not delivered once revoke() has been called.
    if (flag_set(opts.revoked)) {
      throw RevokedError(util::cat(verb, " on a revoked communicator"));
    }
    auto it = find_locked(source, tag);
    if (it != queue_.end()) return it;
    if (flag_set(opts.killed)) {
      throw RankKilledError(
          util::cat(verb, " on a killed rank (fault injection)"));
    }
    // No match queued and the expected sender is dead: nothing more can
    // arrive from it (its sends are swallowed), so fail fast.
    if (flag_set(opts.peer_killed)) {
      throw PeerKilledError(
          opts.peer_rank,
          util::cat(verb, ": peer rank ", opts.peer_rank,
                    " died (fault injection) while this rank waited for ",
                    describe_match(source, tag)));
    }
    if (flag_set(opts.aborted)) {
      throw CommError(util::cat(verb, " aborted: another rank failed"));
    }
    const auto now = std::chrono::steady_clock::now();
    if (bounded && now >= deadline) {
      throw RecvTimeoutError(util::cat(verb, " timed out after ",
                                       opts.timeout.count(),
                                       " ms waiting for ",
                                       describe_match(source, tag)));
    }
    const auto slice =
        bounded ? std::min<std::chrono::steady_clock::duration>(
                      kPollPeriod, deadline - now)
                : std::chrono::steady_clock::duration(kPollPeriod);
    cv_.wait_for(lock, slice);
  }
}

Envelope Mailbox::pop_matching(int source, int tag, const WaitOptions& opts) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = wait_for_match(lock, source, tag, opts, "recv");
  Envelope env = std::move(*it);
  queued_bytes_ -= env.payload.size();
  queue_.erase(it);
  return env;
}

Status Mailbox::probe(int source, int tag, const WaitOptions& opts) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = wait_for_match(lock, source, tag, opts, "probe");
  return Status{it->source, it->tag, it->payload.size()};
}

std::optional<Status> Mailbox::try_probe(int source, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = find_locked(source, tag);
  if (it == queue_.end()) return std::nullopt;
  return Status{it->source, it->tag, it->payload.size()};
}

void Mailbox::interrupt() { cv_.notify_all(); }

std::size_t Mailbox::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t Mailbox::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_bytes_;
}

std::size_t Mailbox::highwater_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return highwater_bytes_;
}

std::size_t Mailbox::highwater_messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return highwater_messages_;
}

Mailbox::WaitInfo Mailbox::wait_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wait_;
}

}  // namespace pyhpc::comm
