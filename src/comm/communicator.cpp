// The byte-level core under the typed Communicator API: the receive and
// send paths every message takes, and every collective schedule, written
// once over byte spans.
#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <thread>
#include <tuple>

namespace pyhpc::comm {

const char* collective_algo_name(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kAuto:
      return "auto";
    case CollectiveAlgo::kLinear:
      return "linear";
    case CollectiveAlgo::kRecursiveDoubling:
      return "recursive_doubling";
    case CollectiveAlgo::kRabenseifner:
      return "rabenseifner";
    case CollectiveAlgo::kRing:
      return "ring";
    case CollectiveAlgo::kBruck:
      return "bruck";
    case CollectiveAlgo::kBinomial:
      return "binomial";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// kAuto switches allreduce from recursive doubling to Rabenseifner, and
/// allgather from Bruck to the ring, at this many payload bytes per rank
/// (identical on every rank, so all ranks pick the same schedule).
constexpr std::size_t kLongMessageBytes = 4096;

/// Phase slots per collective instance. Sized for the multi-phase
/// schedules: the ring uses one phase per round (p - 1 rounds),
/// Rabenseifner 2·log2(p) + 2. A phase beyond the slot count wraps; that is
/// safe because within one collective a wrapped tag only ever re-pairs the
/// same (source, dest) edge, where FIFO non-overtaking keeps messages
/// ordered.
constexpr int kCollPhases = 256;

int coll_tag(std::uint64_t seq, int phase) {
  constexpr std::uint64_t kSlots =
      static_cast<std::uint64_t>(kCollTagSpan) / kCollPhases;
  return kMaxUserTag +
         static_cast<int>((seq % kSlots) * kCollPhases +
                          static_cast<std::uint64_t>(phase % kCollPhases));
}

int phase_of(int mask) {
  int phase = 0;
  while (mask > 1) {
    mask >>= 1;
    ++phase;
  }
  return phase;
}

std::size_t at(int r) { return static_cast<std::size_t>(r); }

void check_root(int root, int p) {
  require<CommError>(root >= 0 && root < p, "collective root out of range");
}

/// kAuto becomes `dflt`; anything else must be kLinear (every collective's
/// reference schedule) or one of `schedules`.
CollectiveAlgo resolve(CollectiveAlgo call, CollectiveAlgo dflt,
                       std::initializer_list<CollectiveAlgo> schedules,
                       const char* what) {
  const CollectiveAlgo a = call == CollectiveAlgo::kAuto ? dflt : call;
  require<CommError>(a == CollectiveAlgo::kLinear ||
                         std::find(schedules.begin(), schedules.end(), a) !=
                             schedules.end(),
                     what, ": unsupported algorithm");
  return a;
}

/// Copies a received payload into `dst`, which must be exactly its size.
void copy_payload(const Envelope& env, std::span<std::byte> dst) {
  require<CommError>(env.payload.size() == dst.size(),
                     "collective recv: unexpected message size");
  // An empty contribution (legal in gatherv and the variable collectives)
  // arrives with payload.data() == nullptr, and memcpy with a null source
  // is UB even for size 0.
  if (!dst.empty()) {
    std::memcpy(dst.data(), env.payload.data(), dst.size());
  }
}

/// Folds a received payload, which must be exactly acc's size, into acc
/// (acc[i] = op(acc[i], payload[i]) for each esz-byte element).
template <class Fold>
void fold_payload(const Envelope& env, std::span<std::byte> acc,
                  std::size_t esz, const Fold& fold) {
  require<CommError>(env.payload.size() == acc.size(),
                     "collective recv: unexpected message size");
  if (!acc.empty()) fold(acc.data(), env.payload.data(), acc.size() / esz);
}

void copy_bytes(std::span<const std::byte> from, std::span<std::byte> to) {
  std::copy(from.begin(), from.end(), to.begin());
}

/// Per-phase send volume, visible as a counter track in the trace.
void note_phase_bytes(std::size_t bytes) {
  obs::counter("comm.coll_phase_bytes", "comm", static_cast<double>(bytes));
}

/// One trace span per collective entry, tagged with this rank's local
/// send volume (and, when given, the schedule that was selected).
obs::Span coll_span(const char* name, std::size_t bytes, int ranks,
                    std::optional<CollectiveAlgo> algo = std::nullopt) {
  obs::Span span(name, "comm");
  if (span.active()) {
    span.arg("bytes", static_cast<std::int64_t>(bytes));
    span.arg("ranks", static_cast<std::int64_t>(ranks));
    if (algo) span.arg("algo", collective_algo_name(*algo));
  }
  return span;
}

/// Bumps the per-rank selection counter for the schedule that ran.
void note_algo(CommStats& s, CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kLinear: ++s.algo_linear; break;
    case CollectiveAlgo::kRecursiveDoubling: ++s.algo_recursive_doubling; break;
    case CollectiveAlgo::kRabenseifner: ++s.algo_rabenseifner; break;
    case CollectiveAlgo::kRing: ++s.algo_ring; break;
    case CollectiveAlgo::kBruck: ++s.algo_bruck; break;
    case CollectiveAlgo::kBinomial: ++s.algo_binomial; break;
    case CollectiveAlgo::kAuto: break;  // resolved before this point
  }
}

/// A byte range of a schedule's working buffer.
struct Slice {
  std::size_t off = 0;
  std::size_t len = 0;
};

/// One round of a schedule: send `send` to `to`, then receive `recv` from
/// `from`, folding it in or copying it over (-1 skips either half).
struct Round {
  int to = -1;
  Slice send{};
  int from = -1;
  Slice recv{};
  bool fold = false;
  int phase = 0;
  bool note = false;  // record the send volume as comm.coll_phase_bytes
};

/// Dissemination barrier: at distance k = 1, 2, 4, ... every rank signals
/// (rank + k) mod p and waits on (rank - k) mod p, ceil(log2 p) rounds.
std::vector<Round> barrier_rounds(int rank, int p) {
  std::vector<Round> rounds;
  for (int k = 1; k < p; k <<= 1) {
    rounds.push_back(
        Round{.to = Communicator::dissemination_send_peer(rank, k, p),
              .from = Communicator::dissemination_recv_peer(rank, k, p),
              .phase = phase_of(k)});
  }
  return rounds;
}

/// Allreduce over `bytes` of `esz`-byte elements by recursive doubling or
/// Rabenseifner. A non-power-of-two world first folds the first 2·rem
/// ranks pairwise onto the odd member; the surviving pof2 "core" ranks run
/// the power-of-two schedule, and the result fans back out.
std::vector<Round> allreduce_rounds(int rank, int p, std::size_t bytes,
                                    std::size_t esz, CollectiveAlgo algo) {
  std::vector<Round> rounds;
  if (p == 1 || bytes == 0) return rounds;
  const Slice all{0, bytes};
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  int newrank = rank - rem;
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      rounds.push_back(Round{.to = rank + 1, .send = all});
      newrank = -1;  // folded out until the final fan-back
    } else {
      rounds.push_back(Round{.from = rank - 1, .recv = all, .fold = true});
      newrank = rank / 2;
    }
  }
  // Maps a core rank back to its real rank.
  auto real_of = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
  int phase = 1;
  if (newrank >= 0 && algo == CollectiveAlgo::kRecursiveDoubling) {
    for (int mask = 1; mask < pof2; mask <<= 1, ++phase) {
      const int dst = real_of(newrank ^ mask);
      rounds.push_back(Round{.to = dst, .send = all, .from = dst, .recv = all,
                             .fold = true, .phase = phase, .note = true});
    }
  } else if (newrank >= 0) {
    // Rabenseifner: pof2 nearly-equal contiguous chunks (the first n % pof2
    // get one extra element). Reduce-scatter by recursive halving over the
    // chunk range [lo, hi) — each round trades away the half not holding
    // chunk `newrank` — then allgather by recursive doubling.
    const std::size_t n = bytes / esz;
    std::vector<std::size_t> disp(at(pof2) + 1, 0);
    for (int c = 0; c < pof2; ++c) {
      disp[at(c) + 1] = disp[at(c)] + n / at(pof2) + (at(c) < n % at(pof2));
    }
    auto range = [&](int a, int b) {
      return Slice{disp[at(a)] * esz, (disp[at(b)] - disp[at(a)]) * esz};
    };
    int lo = 0;
    int hi = pof2;
    for (int mask = pof2 / 2; mask > 0; mask >>= 1, ++phase) {
      const int dst = real_of(newrank ^ mask);
      const int mid = lo + (hi - lo) / 2;
      const bool keep_low = (newrank & mask) == 0;
      const Slice give = keep_low ? range(mid, hi) : range(lo, mid);
      if (keep_low) hi = mid; else lo = mid;
      rounds.push_back(Round{.to = dst, .send = give, .from = dst,
                             .recv = range(lo, hi), .fold = true,
                             .phase = phase, .note = true});
    }
    for (int mask = 1; mask < pof2; mask <<= 1, ++phase) {
      const int newdst = newrank ^ mask;
      const int mylo = newrank & ~(mask - 1);
      const int peerlo = newdst & ~(mask - 1);
      rounds.push_back(Round{.to = real_of(newdst),
                             .send = range(mylo, mylo + mask),
                             .from = real_of(newdst),
                             .recv = range(peerlo, peerlo + mask),
                             .phase = phase, .note = true});
    }
  }
  // Fan the finished vector back to the folded-out even ranks. The phase
  // index is fixed (not derived from the core's depth) so both sides of
  // each pair agree.
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      rounds.push_back(
          Round{.from = rank + 1, .recv = all, .phase = kCollPhases - 1});
    } else {
      rounds.push_back(
          Round{.to = rank - 1, .send = all, .phase = kCollPhases - 1});
    }
  }
  return rounds;
}

}  // namespace

/// A barrier or allreduce in flight: its rounds over one working buffer,
/// and how far it got (`sent`: the current round's send is out).
struct Communicator::Schedule {
  std::uint64_t seq = 0;
  std::vector<Round> rounds{};
  std::span<std::byte> buf{};
  std::size_t esz = 1;
  Fold fold{};
  std::size_t next = 0;
  bool sent = false;
};

/// RAII deadline budget for one collective call: the outermost collective
/// entered on this rank arms a single deadline of CommConfig::recv_timeout
/// covering *all* of its internal phases (pop spends the remainder, not a
/// fresh timeout per phase). Nested collectives (kLinear compositions,
/// allgatherv's count round) inherit the outer budget.
class Communicator::CollectiveDeadline {
 public:
  explicit CollectiveDeadline(Communicator& comm) : comm_(comm) {
    const auto budget = comm_.ctx_->config().recv_timeout;
    if (comm_.coll_deadline_ == Clock::time_point{} && budget.count() > 0) {
      comm_.coll_deadline_ = Clock::now() + budget;
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

Communicator::Communicator(const Communicator& other)
    : ctx_(other.ctx_),
      rank_(other.rank_),
      seq_(other.seq_),
      coll_deadline_(other.coll_deadline_) {}

Communicator& Communicator::operator=(const Communicator& other) {
  ctx_ = other.ctx_;
  rank_ = other.rank_;
  seq_ = other.seq_;
  coll_deadline_ = other.coll_deadline_;
  posted_.clear();
  return *this;
}

CommStats Communicator::aggregate_stats() const {
  CommStats total;
  for (int r = 0; r < size(); ++r) total += ctx_->stats(r);
  return total;
}

void Communicator::check_user_tag(int tag) const {
  require<CommError>(tag >= 0 && tag < kMaxUserTag, "tag ", tag,
                     " outside user range [0, ", kMaxUserTag, ")");
}

void Communicator::check_user_tag_or_any(int tag) const {
  if (tag != kAnyTag) check_user_tag(tag);
}

void Communicator::check_internal_tag(int tag) const {
  require<CommError>(tag >= kInternalP2PBase, "internal p2p tag ", tag,
                     " below reserved base ", kInternalP2PBase);
}

// ---- receive core ---------------------------------------------------------

Mailbox::WaitOptions Communicator::wait_options(
    std::optional<milliseconds> timeout) const {
  Mailbox::WaitOptions w;
  w.aborted = &ctx_->abort_flag();
  w.killed = &ctx_->killed_flag(rank_);
  w.revoked = &ctx_->revoked_flag();
  w.timeout = timeout.value_or(ctx_->config().recv_timeout);
  return w;
}

/// An abort-path CommError may really be the watchdog's verdict; surface
/// the who-waits-on-whom report as DeadlockError when it is.
void Communicator::rethrow_refined() const {
  if (ctx_->deadlocked()) throw DeadlockError(ctx_->deadlock_report());
  throw;
}

void Communicator::accept(const Envelope& env, Traffic traffic) {
  if (envelope_checksum(env) != env.checksum) {
    ++stats().corruption_detected;
    throw CommIntegrityError(util::cat(
        "message integrity check failed (source ", env.source, ", tag ",
        env.tag, ", ", env.payload.size(), " bytes): checksum mismatch"));
  }
  auto& s = stats();
  if (traffic == Traffic::kColl) {
    ++s.coll_messages_received;
    s.coll_bytes_received += env.payload.size();
  } else {
    ++s.p2p_messages_received;
    s.p2p_bytes_received += env.payload.size();
  }
}

Envelope Communicator::pop(int source, int tag, Traffic traffic,
                           std::optional<milliseconds> timeout) {
  // A collective receive spends what is left of the call's shared budget.
  if (traffic == Traffic::kColl && coll_deadline_ != Clock::time_point{}) {
    const auto now = Clock::now();
    if (now >= coll_deadline_) {
      ++stats().timeouts;
      throw RecvTimeoutError(util::cat(
          "collective exceeded its shared ",
          ctx_->config().recv_timeout.count(),
          " ms deadline (budget spans all phases of one collective)"));
    }
    timeout = std::max(
        std::chrono::duration_cast<milliseconds>(coll_deadline_ - now),
        milliseconds(1));
  }
  Mailbox::WaitOptions w = wait_options(timeout);
  // A receive from a specific dead source can never be satisfied (queued
  // matches still deliver first), so fail fast with PeerKilledError
  // instead of waiting out the watchdog. Split-phase Import waits ride on
  // this path too, so a rank killed mid-exchange surfaces to its peers
  // inside resilient_solve's recovery scope rather than as a deadlock.
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
  accept(env, traffic);
  return env;
}

std::optional<Envelope> Communicator::try_pop(int source, int tag,
                                              Traffic traffic) {
  auto env = ctx_->mailbox(rank_).try_pop_matching(source, tag);
  if (env.has_value()) accept(*env, traffic);
  return env;
}

Status Communicator::recv_exact(std::span<std::byte> buf, int source, int tag,
                                std::optional<milliseconds> timeout) {
  Envelope env = pop(source, tag, Traffic::kP2P, timeout);
  require<CommError>(env.payload.size() == buf.size(), "recv: message of ",
                     env.payload.size(), " bytes does not match buffer of ",
                     buf.size(), " bytes (source ", env.source, ", tag ",
                     env.tag, ")");
  if (!buf.empty()) {
    std::memcpy(buf.data(), env.payload.data(), buf.size());
  }
  return Status{env.source, env.tag, env.payload.size()};
}

Status Communicator::recv_bytes(std::vector<std::byte>& out, int source,
                                int tag) {
  Envelope env = pop(source, tag, Traffic::kP2P);
  out = env.payload.take_bytes();
  return Status{env.source, env.tag, out.size()};
}

Status Communicator::recv_bytes_within(milliseconds timeout,
                                       std::vector<std::byte>& out,
                                       int source, int tag) {
  Envelope env = pop(source, tag, Traffic::kP2P, timeout);
  out = env.payload.take_bytes();
  return Status{env.source, env.tag, out.size()};
}

void Communicator::send_string(const std::string& text, int dest, int tag) {
  send_bytes(std::as_bytes(std::span<const char>(text.data(), text.size())),
             dest, tag);
}

std::string Communicator::recv_string(int source, int tag) {
  std::vector<std::byte> raw;
  recv_bytes(raw, source, tag);
  // Empty payloads have a null data() pointer; constructing a string from
  // (nullptr, 0) is UB, so guard that case explicitly.
  if (raw.empty()) return std::string();
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

Status Communicator::probe(int source, int tag) {
  try {
    return ctx_->mailbox(rank_).probe(source, tag, wait_options(std::nullopt));
  } catch (const RecvTimeoutError&) {
    ++stats().timeouts;
    throw;
  } catch (const RankKilledError&) {
    throw;
  } catch (const CommError&) {
    rethrow_refined();
  }
}

std::optional<Status> Communicator::iprobe(int source, int tag) {
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

// ---- send core ------------------------------------------------------------

/// The send core every path funnels through: validates the destination
/// and this rank's liveness, books the *logical* message volume into the
/// p2p/coll counters (zero-copy and copied sends report the same logical
/// bytes — `bytes_copied` separately tracks the physical copies), and
/// hands the envelope to Context::deliver.
void Communicator::send_buffer(Buffer payload, int dest, int tag,
                               bool internal) {
  require<CommError>(dest >= 0 && dest < size(), "send: destination rank ",
                     dest, " out of range [0, ", size(), ")");
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

/// Eager copying send: the payload is copied out immediately (pooled arena
/// block when it fits, heap otherwise), so the caller's buffer is free the
/// moment this returns — sends never block, which the collectives'
/// deadlock-freedom depends on.
void Communicator::send_bytes_internal(std::span<const std::byte> data,
                                       int dest, int tag, bool internal) {
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
SendFuture Communicator::isend_bytes(std::span<const std::byte> data, int dest,
                                     int tag) {
  if (data.size() <= ctx_->config().eager_threshold) {
    send_bytes_internal(data, dest, tag, /*internal=*/false);
    return SendFuture();
  }
  ++stats().rendezvous;
  auto handoff = std::make_shared<RendezvousState>();
  send_buffer(Buffer::view(data, handoff), dest, tag, /*internal=*/false);
  return SendFuture(std::move(handoff), ctx_, rank_);
}

// ---- non-blocking operations ------------------------------------------------

struct Communicator::CallbackRecvOp final : NbOp {
  CallbackRecvOp(int source, int tag, RecvCallback cb)
      : source_(source), tag_(tag), cb_(std::move(cb)) {}
  bool step(Communicator& comm) override {
    auto env = comm.try_pop(source_, tag_, Traffic::kP2P);
    if (!env.has_value()) return false;
    cb_(std::move(*env));
    return true;
  }
  int source_;
  int tag_;
  RecvCallback cb_;
};

/// A posted ibarrier/iallreduce: the blocking call's schedule, advanced
/// one try at a time by progress().
struct Communicator::ScheduleOp final : NbOp {
  ScheduleOp(Schedule s, std::shared_ptr<NbCollState> state)
      : schedule_(std::move(s)), state_(std::move(state)) {}
  bool step(Communicator& comm) override {
    if (!comm.run_schedule(schedule_, /*block=*/false)) return false;
    state_->done.store(true, std::memory_order_release);
    return true;
  }
  Schedule schedule_;
  std::shared_ptr<NbCollState> state_;
};

void Communicator::irecv(int source, int tag, RecvCallback cb) {
  check_user_tag_or_any(tag);
  posted_.push_back(
      std::make_unique<CallbackRecvOp>(source, tag, std::move(cb)));
}

/// Failure poll for the non-blocking paths: progress() and
/// CollFuture::wait() call it so a fault-injected death, revocation, or
/// world abort surfaces as the matching error instead of silent stalls.
void Communicator::poll_async_failures() {
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

std::size_t Communicator::progress() {
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

bool Communicator::run_schedule(Schedule& s, bool block) {
  for (; s.next < s.rounds.size(); ++s.next, s.sent = false) {
    const Round& r = s.rounds[s.next];
    const int tag = coll_tag(s.seq, r.phase);
    if (r.to >= 0 && !s.sent) {
      send_bytes_internal(s.buf.subspan(r.send.off, r.send.len), r.to, tag,
                          /*internal=*/true);
    }
    s.sent = true;
    if (r.from < 0) continue;
    std::optional<Envelope> env;
    if (block) {
      env = pop(r.from, tag, Traffic::kColl);
    } else {
      env = try_pop(r.from, tag, Traffic::kColl);
      if (!env.has_value()) return false;
    }
    const auto dst = s.buf.subspan(r.recv.off, r.recv.len);
    if (r.fold) {
      fold_payload(*env, dst, s.esz, s.fold);
    } else {
      copy_payload(*env, dst);
    }
    if (r.note) note_phase_bytes(r.send.len);
  }
  return true;
}

CollFuture Communicator::post(Schedule s) {
  auto state = std::make_shared<NbCollState>();
  posted_.push_back(std::make_unique<ScheduleOp>(std::move(s), state));
  return CollFuture(std::move(state), this);
}

void SendFuture::wait() {
  if (!state_) return;
  while (!state_->wait_for(milliseconds(25))) {
    if (ctx_->is_killed(rank_)) {
      throw RankKilledError(
          "SendFuture::wait on a killed rank (fault injection)");
    }
    if (ctx_->abort_flag().load(std::memory_order_relaxed)) {
      throw CommError("SendFuture::wait aborted: another rank failed");
    }
  }
}

/// Drives progress() until the collective completes; bounded by the
/// configured receive deadline (zero = wait forever), with the same
/// failure refinement as the blocking collectives.
void CollFuture::wait() {
  if (ready()) return;
  const auto budget = comm_->ctx_->config().recv_timeout;
  const auto deadline = budget.count() > 0 ? Clock::now() + budget
                                           : Clock::time_point::max();
  while (!ready()) {
    comm_->progress();
    if (ready()) return;
    if (Clock::now() >= deadline) {
      ++comm_->stats().timeouts;
      throw RecvTimeoutError(util::cat("non-blocking collective exceeded its ",
                                       budget.count(), " ms deadline"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool PendingRecv::ready() {
  if (captured_.has_value()) return true;
  // The message leaves the mailbox here, so this is where it counts as
  // received — wait() may never run (see the destructor).
  captured_ = comm_->try_pop(source_, tag_, Communicator::Traffic::kP2P);
  return captured_.has_value();
}

Envelope PendingRecv::wait() {
  require<CommError>(!consumed_, "PendingRecv::wait: already consumed");
  consumed_ = true;
  if (captured_.has_value()) return std::move(*captured_);
  return comm_->pop(source_, tag_, Communicator::Traffic::kP2P);
}

PendingRecv::~PendingRecv() {
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

// ---- collectives ------------------------------------------------------------
// Each entry opens its trace span, arms the shared deadline, books the
// schedule in the algo_* counters and takes one sequence number (one
// `collectives` count); kLinear compositions book their nested stages too.

std::uint64_t Communicator::next_seq() {
  ++stats().collectives;
  return seq_++;
}

void Communicator::barrier() {
  obs::Span span = coll_span("barrier", 0, size());
  CollectiveDeadline deadline_guard(*this);
  Schedule s{.seq = next_seq(), .rounds = barrier_rounds(rank_, size())};
  run_schedule(s, /*block=*/true);
}

CollFuture Communicator::ibarrier() {
  obs::Span span = coll_span("ibarrier", 0, size());
  return post(
      Schedule{.seq = next_seq(), .rounds = barrier_rounds(rank_, size())});
}

void Communicator::broadcast_bytes(std::span<std::byte> data, int root,
                                   CollectiveAlgo algo) {
  check_root(root, size());
  algo = resolve(algo, CollectiveAlgo::kBinomial, {CollectiveAlgo::kBinomial},
                 "broadcast");
  obs::Span span = coll_span("broadcast", data.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const std::uint64_t seq = next_seq();
  const int p = size();
  const int tag = coll_tag(seq, 0);
  if (algo == CollectiveAlgo::kLinear) {
    // Flat root-funneled reference: root sends the whole buffer to every
    // rank (the baseline the benches compare the tree schedules against).
    if (rank_ != root) {
      copy_payload(pop(root, tag, Traffic::kColl), data);
      return;
    }
    for (int r = 0; r < p; ++r) {
      if (r != root) send_bytes_internal(data, r, tag, /*internal=*/true);
    }
    return;
  }
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      copy_payload(pop((vrank - mask + root) % p, tag, Traffic::kColl), data);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask < p) {
      send_bytes_internal(data, (vrank + mask + root) % p, tag,
                          /*internal=*/true);
    }
  }
}

std::string Communicator::broadcast_string(const std::string& text, int root) {
  const std::uint64_t len = broadcast_value<std::uint64_t>(text.size(), root);
  std::string out = (rank_ == root) ? text : std::string(len, '\0');
  if (len > 0) broadcast(std::span<char>(out.data(), out.size()), root);
  return out;
}

void Communicator::reduce_bytes(std::span<const std::byte> in,
                                std::span<std::byte> out, std::size_t esz,
                                const Fold& fold, int root,
                                CollectiveAlgo algo) {
  check_root(root, size());
  algo = resolve(algo, CollectiveAlgo::kBinomial, {CollectiveAlgo::kBinomial},
                 "reduce");
  obs::Span span = coll_span("reduce", in.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const std::uint64_t seq = next_seq();
  const int p = size();
  // Receives one rank's contribution and folds it into `acc`.
  auto fold_from = [&](std::span<std::byte> acc, int src, int tag) {
    fold_payload(pop(src, tag, Traffic::kColl), acc, esz, fold);
  };
  if (algo == CollectiveAlgo::kLinear) {
    // Flat funnel: root receives and folds every rank's vector in rank
    // order — (p-1)*n bytes concentrated at the root.
    if (rank_ != root) {
      send_bytes_internal(in, root, coll_tag(seq, 0), /*internal=*/true);
      return;
    }
    require<CommError>(out.size() == in.size(),
                       "reduce: root output span has wrong size");
    copy_bytes(in, out);
    for (int r = 0; r < p; ++r) {
      if (r != root) fold_from(out, r, coll_tag(seq, 0));
    }
    return;
  }
  const int vrank = (rank_ - root + p) % p;
  std::vector<std::byte> partial(in.begin(), in.end());
  for (int mask = 1; mask < p; mask <<= 1) {
    const int tag = coll_tag(seq, phase_of(mask));
    if (vrank & mask) {
      send_bytes_internal(partial, ((vrank & ~mask) + root) % p, tag,
                          /*internal=*/true);
      break;
    }
    const int vsrc = vrank | mask;
    if (vsrc < p) fold_from(partial, (vsrc + root) % p, tag);
  }
  if (rank_ == root) {
    require<CommError>(out.size() == in.size(),
                       "reduce: root output span has wrong size");
    copy_bytes(partial, out);
  }
}

void Communicator::allreduce_bytes(std::span<const std::byte> in,
                                   std::span<std::byte> out, std::size_t esz,
                                   const Fold& fold, CollectiveAlgo algo) {
  require<CommError>(out.size() == in.size(),
                     "allreduce: output span has wrong size");
  algo = resolve(algo,
                 in.size() >= kLongMessageBytes
                     ? CollectiveAlgo::kRabenseifner
                     : CollectiveAlgo::kRecursiveDoubling,
                 {CollectiveAlgo::kRecursiveDoubling,
                  CollectiveAlgo::kRabenseifner},
                 "allreduce");
  obs::Span span = coll_span("allreduce", in.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  if (algo == CollectiveAlgo::kLinear) {
    reduce_bytes(in, out, esz, fold, 0, CollectiveAlgo::kLinear);
    broadcast_bytes(out, 0, CollectiveAlgo::kLinear);
    return;
  }
  copy_bytes(in, out);
  Schedule s{.seq = next_seq(),
             .rounds = allreduce_rounds(rank_, size(), out.size(), esz, algo),
             .buf = out,
             .esz = esz,
             .fold = fold};
  run_schedule(s, /*block=*/true);
}

CollFuture Communicator::iallreduce_bytes(std::span<const std::byte> in,
                                          std::span<std::byte> out,
                                          std::size_t esz, Fold fold) {
  require<CommError>(out.size() == in.size(),
                     "iallreduce: output span has wrong size");
  const auto algo = CollectiveAlgo::kRecursiveDoubling;
  obs::Span span = coll_span("iallreduce", in.size(), size(), algo);
  note_algo(stats(), algo);
  copy_bytes(in, out);
  return post(Schedule{
      .seq = next_seq(),
      .rounds = allreduce_rounds(rank_, size(), out.size(), esz, algo),
      .buf = out,
      .esz = esz,
      .fold = std::move(fold)});
}

void Communicator::scan_inclusive_bytes(std::span<std::byte> value,
                                        const Fold& fold) {
  obs::Span span = coll_span("scan_inclusive", value.size(), size());
  CollectiveDeadline deadline_guard(*this);
  const int tag = coll_tag(next_seq(), 0);
  if (rank_ > 0) {
    // value = op(prev, value): fold this rank's value into the prefix.
    std::vector<std::byte> prev(value.size());
    copy_payload(pop(rank_ - 1, tag, Traffic::kColl), prev);
    fold(prev.data(), value.data(), 1);
    copy_bytes(prev, value);
  }
  if (rank_ + 1 < size()) {
    send_bytes_internal(value, rank_ + 1, tag, /*internal=*/true);
  }
}

void Communicator::scan_exclusive_bytes(std::span<std::byte> value,
                                        std::span<const std::byte> identity,
                                        const Fold& fold) {
  obs::Span span = coll_span("scan_exclusive", value.size(), size());
  CollectiveDeadline deadline_guard(*this);
  scan_inclusive_bytes(value, fold);
  // Rotate: every rank wants the inclusive scan of the previous rank.
  const int tag = coll_tag(next_seq(), 0);
  if (rank_ + 1 < size()) {
    send_bytes_internal(value, rank_ + 1, tag, /*internal=*/true);
  }
  copy_bytes(identity, value);
  if (rank_ > 0) copy_payload(pop(rank_ - 1, tag, Traffic::kColl), value);
}

void Communicator::gather_bytes(std::span<const std::byte> mine,
                                std::span<std::byte> all, int root,
                                CollectiveAlgo algo) {
  check_root(root, size());
  algo = resolve(algo, CollectiveAlgo::kBinomial, {CollectiveAlgo::kBinomial},
                 "gather");
  obs::Span span = coll_span("gather", mine.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const std::uint64_t seq = next_seq();
  const int p = size();
  const std::size_t cnt = mine.size();
  if (algo == CollectiveAlgo::kLinear) {
    if (rank_ != root) {
      send_bytes_internal(mine, root, coll_tag(seq, 0), /*internal=*/true);
      return;
    }
    for (int r = 0; r < p; ++r) {
      // first(), not subspan(off, cnt): at -O3 GCC 12 takes subspan's
      // dynamic_extent branch for a SIZE_MAX-byte copy and warns.
      const auto slot = all.subspan(cnt * at(r)).first(cnt);
      if (r == rank_) {
        copy_bytes(mine, slot);
      } else {
        copy_payload(pop(r, coll_tag(seq, 0), Traffic::kColl), slot);
      }
    }
    return;
  }
  // Binomial tree over virtual ranks (vrank 0 = root). Each rank
  // accumulates its subtree's blocks contiguously in vrank order, then
  // ships the whole thing to its parent in one message.
  const int vrank = (rank_ - root + p) % p;
  std::vector<std::byte> buf(mine.begin(), mine.end());
  for (int mask = 1; mask < p; mask <<= 1) {
    const int tag = coll_tag(seq, phase_of(mask));
    if (vrank & mask) {
      // All lower bits are zero here, so vrank - mask is the parent.
      send_bytes_internal(buf, (vrank - mask + root) % p, tag,
                          /*internal=*/true);
      break;
    }
    const int child_v = vrank + mask;
    if (child_v < p) {
      const std::size_t old = buf.size();
      buf.resize(old + at(std::min(mask, p - child_v)) * cnt);
      copy_payload(pop((child_v + root) % p, tag, Traffic::kColl),
                   std::span<std::byte>(buf).subspan(old));
      note_phase_bytes(buf.size() - old);
    }
  }
  if (rank_ == root) {
    // buf holds blocks for vranks 0..p-1; rotate back to real-rank order.
    for (int v = 0; v < p; ++v) {
      copy_bytes(std::span<const std::byte>(buf).subspan(at(v) * cnt, cnt),
                 all.subspan(at((v + root) % p) * cnt, cnt));
    }
  }
}

void Communicator::gatherv_bytes(std::span<const std::byte> mine, int root,
                                 const PartStore& store) {
  check_root(root, size());
  obs::Span span =
      coll_span("gatherv", mine.size(), size(), CollectiveAlgo::kLinear);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), CollectiveAlgo::kLinear);
  const int tag = coll_tag(next_seq(), 0);
  if (rank_ != root) {
    send_bytes_internal(mine, root, tag, /*internal=*/true);
    return;
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) {
      copy_bytes(mine, store(r, mine.size()));
    } else {
      const Envelope env = pop(r, tag, Traffic::kColl);
      copy_payload(env, store(r, env.payload.size()));
    }
  }
}

void Communicator::allgather_bytes(std::span<const std::byte> mine,
                                   std::span<std::byte> all,
                                   CollectiveAlgo algo) {
  algo = resolve(algo,
                 mine.size() >= kLongMessageBytes ? CollectiveAlgo::kRing
                                                  : CollectiveAlgo::kBruck,
                 {CollectiveAlgo::kBruck, CollectiveAlgo::kRing}, "allgather");
  obs::Span span = coll_span("allgather", mine.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  if (algo == CollectiveAlgo::kLinear) {
    gather_bytes(mine, all, 0, CollectiveAlgo::kLinear);
    // The root's total doubles as the check that every rank sized `all`
    // for the same per-rank count.
    auto total = static_cast<std::uint64_t>(all.size());
    broadcast_bytes(std::as_writable_bytes(std::span(&total, 1)), 0,
                    CollectiveAlgo::kLinear);
    require<CommError>(total == all.size(), "allgather: rank ", rank_,
                       " contributes ", mine.size(),
                       " bytes but the root gathered ", total, " in all");
    broadcast_bytes(all, 0, CollectiveAlgo::kLinear);
    return;
  }
  const int p = size();
  const std::size_t cnt = mine.size();
  const std::uint64_t seq = next_seq();
  auto block = [cnt](std::span<std::byte> v, int b) {
    return v.subspan(at(b) * cnt, cnt);
  };
  if (algo == CollectiveAlgo::kRing) {
    // p-1 neighbour rounds; every rank relays the block it received in
    // the previous round, so no rank ever handles more than its share.
    copy_bytes(mine, block(all, rank_));
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
      const int tag = coll_tag(seq, step);
      send_bytes_internal(block(all, (rank_ - step + p) % p), right, tag,
                          /*internal=*/true);
      copy_payload(pop(left, tag, Traffic::kColl),
                   block(all, (rank_ - step - 1 + p) % p));
      note_phase_bytes(cnt);
    }
    return;
  }
  // Bruck: ceil(log2 p) doubling rounds over a rotated buffer, then one
  // local unrotation. Round k ships min(2^k, p - 2^k) blocks.
  std::vector<std::byte> tmp(all.size());
  copy_bytes(mine, tmp);
  for (int held = 1, phase = 0; held < p; ++phase) {
    const int blocks = std::min(held, p - held);
    const std::size_t nbytes = at(blocks) * cnt;
    const int tag = coll_tag(seq, phase);
    send_bytes_internal(std::span<const std::byte>(tmp).first(nbytes),
                        (rank_ - held + p) % p, tag, /*internal=*/true);
    copy_payload(pop((rank_ + held) % p, tag, Traffic::kColl),
                 std::span<std::byte>(tmp).subspan(at(held) * cnt, nbytes));
    note_phase_bytes(nbytes);
    held += blocks;
  }
  // tmp block j holds rank (rank_ + j) % p's contribution.
  for (int j = 0; j < p; ++j) {
    copy_bytes(block(tmp, j), block(all, (rank_ + j) % p));
  }
}

void Communicator::allgatherv_bytes(std::span<const std::byte> mine,
                                    const PartStore& store,
                                    CollectiveAlgo algo) {
  const bool linear = algo == CollectiveAlgo::kLinear;
  algo = linear ? CollectiveAlgo::kLinear : CollectiveAlgo::kRing;
  obs::Span span = coll_span("allgatherv", mine.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const int p = size();
  // One fixed-size round of byte counts first.
  std::vector<std::uint64_t> counts(at(p));
  const auto my_count = static_cast<std::uint64_t>(mine.size());
  allgather_bytes(std::as_bytes(std::span(&my_count, 1)),
                  std::as_writable_bytes(std::span(counts)),
                  linear ? CollectiveAlgo::kLinear : CollectiveAlgo::kAuto);
  if (linear) {
    // Gather every chunk into one rank-ordered buffer on rank 0 and
    // broadcast it.
    std::vector<std::size_t> off(at(p) + 1, 0);
    for (int r = 0; r < p; ++r) off[at(r) + 1] = off[at(r)] + counts[at(r)];
    std::vector<std::byte> flat(off.back());
    gatherv_bytes(mine, 0, [&](int r, std::size_t bytes) {
      require<CommError>(bytes == counts[at(r)], "allgatherv: rank ", r,
                         " sent ", bytes, " bytes but announced ",
                         counts[at(r)]);
      return std::span<std::byte>(flat).subspan(off[at(r)], bytes);
    });
    broadcast_bytes(flat, 0, CollectiveAlgo::kAuto);
    for (int r = 0; r < p; ++r) {
      copy_bytes(std::span<const std::byte>(flat).subspan(off[at(r)],
                                                          counts[at(r)]),
                 store(r, counts[at(r)]));
    }
    return;
  }
  std::vector<std::span<std::byte>> chunks(at(p));
  chunks[at(rank_)] = store(rank_, mine.size());
  copy_bytes(mine, chunks[at(rank_)]);
  if (p == 1) return;
  const std::uint64_t seq = next_seq();
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int tag = coll_tag(seq, step);
    const auto out = chunks[at((rank_ - step + p) % p)];
    send_bytes_internal(out, right, tag, /*internal=*/true);
    const int rblk = (rank_ - step - 1 + p) % p;
    chunks[at(rblk)] = store(rblk, counts[at(rblk)]);
    copy_payload(pop(left, tag, Traffic::kColl), chunks[at(rblk)]);
    note_phase_bytes(out.size());
  }
}

void Communicator::scatter_bytes(std::span<const std::byte> all,
                                 std::span<std::byte> mine, int root,
                                 CollectiveAlgo algo) {
  check_root(root, size());
  algo = resolve(algo, CollectiveAlgo::kBinomial, {CollectiveAlgo::kBinomial},
                 "scatter");
  obs::Span span = coll_span("scatter", mine.size(), size(), algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const std::uint64_t seq = next_seq();
  const int p = size();
  const std::size_t cnt = mine.size();
  if (rank_ == root) {
    require<CommError>(all.size() == cnt * at(p),
                       "scatter: root buffer size != count * nranks");
  }
  if (algo == CollectiveAlgo::kLinear) {
    if (rank_ != root) {
      copy_payload(pop(root, coll_tag(seq, 0), Traffic::kColl), mine);
      return;
    }
    for (int r = 0; r < p; ++r) {
      const auto slot = all.subspan(cnt * at(r), cnt);
      if (r == rank_) {
        copy_bytes(slot, mine);
      } else {
        send_bytes_internal(slot, r, coll_tag(seq, 0), /*internal=*/true);
      }
    }
    return;
  }
  // Binomial tree over virtual ranks (vrank 0 = root). `buf` holds this
  // rank's subtree blocks in vrank order, my own block first.
  const int vrank = (rank_ - root + p) % p;
  std::vector<std::byte> buf;
  int subtree;  // blocks under (and including) this vrank
  if (vrank == 0) {
    subtree = p;
    buf.resize(cnt * at(p));
    for (int v = 0; v < p; ++v) {
      copy_bytes(all.subspan(at((v + root) % p) * cnt, cnt),
                 std::span<std::byte>(buf).subspan(at(v) * cnt, cnt));
    }
  } else {
    const int lowbit = vrank & (-vrank);
    subtree = std::min(lowbit, p - vrank);
    buf.resize(at(subtree) * cnt);
    copy_payload(pop((vrank - lowbit + root) % p,
                     coll_tag(seq, phase_of(lowbit)), Traffic::kColl),
                 buf);
  }
  // Children sit at vrank + mask for each power of two mask below the
  // subtree span; walk them largest-first so deep subtrees start early.
  int top = 1;
  while (top < p) top <<= 1;
  for (int mask = top >> 1; mask >= 1; mask >>= 1) {
    if (mask >= subtree) continue;
    const int child_v = vrank + mask;  // < p because mask < subtree
    const std::size_t nbytes = at(std::min(mask, p - child_v)) * cnt;
    send_bytes_internal(
        std::span<const std::byte>(buf).subspan(at(mask) * cnt, nbytes),
        (child_v + root) % p, coll_tag(seq, phase_of(mask)),
        /*internal=*/true);
    note_phase_bytes(nbytes);
  }
  copy_bytes(std::span<const std::byte>(buf).first(cnt), mine);
}

void Communicator::scatterv_bytes(std::size_t nparts, const PartView& part,
                                  int root, const PartStore& store) {
  check_root(root, size());
  obs::Span span = coll_span("scatterv", 0, size(), CollectiveAlgo::kLinear);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), CollectiveAlgo::kLinear);
  const int tag = coll_tag(next_seq(), 0);
  if (rank_ != root) {
    const Envelope env = pop(root, tag, Traffic::kColl);
    copy_payload(env, store(rank_, env.payload.size()));
    return;
  }
  require<CommError>(nparts == at(size()),
                     "scatterv: need one part per rank on root");
  for (int r = 0; r < size(); ++r) {
    if (r != rank_) send_bytes_internal(part(r), r, tag, /*internal=*/true);
  }
  copy_bytes(part(rank_), store(rank_, part(rank_).size()));
}

void Communicator::alltoall_bytes(std::span<const std::byte> sendbuf,
                                  std::span<std::byte> recvbuf,
                                  std::size_t esz, CollectiveAlgo algo) {
  const int p = size();
  require<CommError>(sendbuf.size() == recvbuf.size() &&
                         (sendbuf.size() / esz) % at(p) == 0,
                     "alltoall: buffer sizes must be equal multiples of the "
                     "rank count");
  const std::size_t cnt = sendbuf.size() / at(p);
  algo = resolve(algo, CollectiveAlgo::kLinear, {}, "alltoall");
  obs::Span span = coll_span("alltoall", sendbuf.size(), p, algo);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), algo);
  const int tag = coll_tag(next_seq(), 0);
  copy_bytes(sendbuf.subspan(at(rank_) * cnt, cnt),
             recvbuf.subspan(at(rank_) * cnt, cnt));
  for (int r = 0; r < p; ++r) {
    if (r != rank_) {
      send_bytes_internal(sendbuf.subspan(at(r) * cnt, cnt), r, tag,
                          /*internal=*/true);
    }
  }
  for (int r = 0; r < p; ++r) {
    if (r != rank_) {
      copy_payload(pop(r, tag, Traffic::kColl),
                   recvbuf.subspan(at(r) * cnt, cnt));
    }
  }
}

void Communicator::alltoallv_bytes(std::vector<Buffer>& wire,
                                   std::size_t send_bytes) {
  obs::Span span =
      coll_span("alltoallv", send_bytes, size(), CollectiveAlgo::kLinear);
  CollectiveDeadline deadline_guard(*this);
  note_algo(stats(), CollectiveAlgo::kLinear);
  const int tag = coll_tag(next_seq(), 0);
  for (int r = 0; r < size(); ++r) {
    if (r != rank_) send_buffer(std::move(wire[at(r)]), r, tag, true);
  }
  for (int r = 0; r < size(); ++r) {
    if (r != rank_) wire[at(r)] = pop(r, tag, Traffic::kColl).payload;
  }
}

// ---- communicator construction ----------------------------------------------

namespace {
struct SplitEntry {
  int color;
  int key;
  int parent_rank;
};
}  // namespace

Communicator Communicator::split(int color, int key) {
  // Collectively learn everyone's (colour, key); every rank derives the
  // same group layout, so only one rank per colour needs to allocate the
  // child context and publish it through the parent context's registry.
  const std::uint64_t split_seq = seq_;  // unique per program-order call site
  SplitEntry mine{color, key, rank_};
  auto entries = allgather_value(mine);

  std::vector<SplitEntry> group;
  for (const auto& e : entries) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const SplitEntry& a,
                                           const SplitEntry& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });

  int my_new_rank = -1;
  int creator_parent_rank = group.front().parent_rank;
  for (std::size_t i = 0; i < group.size(); ++i) {
    creator_parent_rank = std::min(creator_parent_rank, group[i].parent_rank);
    if (group[i].parent_rank == rank_) my_new_rank = static_cast<int>(i);
  }
  require<CommError>(my_new_rank >= 0, "split: rank missing from own group");

  std::shared_ptr<Context> child;
  if (rank_ == creator_parent_rank) {
    // Children inherit the timeout and watchdog settings but not the fault
    // injector: rules address ranks of the context they were installed in,
    // and child ranks are renumbered.
    CommConfig child_config = ctx_->config();
    child_config.injector.reset();
    child = std::make_shared<Context>(static_cast<int>(group.size()),
                                      std::move(child_config));
    ctx_->publish_child(split_seq, color, child);
  } else {
    child = ctx_->wait_child(split_seq, color);
  }
  return Communicator(std::move(child), my_new_rank);
}

namespace {
// shrink() keys the parent's child registry by agreement round, offset
// into a range the per-rank program-order sequence numbers split() uses
// can never reach.
constexpr std::uint64_t kShrinkSeqBase = std::uint64_t{1} << 62;
}  // namespace

Communicator Communicator::shrink() {
  obs::Span span("shrink", "recovery");
  require<CommError>(size() <= 64,
                     "shrink: dead-set bitmask supports at most 64 ranks");
  // Contribute everything this rank can see; agree() folds in what the
  // other survivors saw plus any rank that dies during the agreement.
  std::uint64_t local = 0;
  for (int r = 0; r < size(); ++r) {
    if (ctx_->is_killed(r)) local |= std::uint64_t{1} << r;
  }
  std::uint64_t round = 0;
  const std::uint64_t mask = ctx_->agree(rank_, local, &round);
  require<CommError>((mask & (std::uint64_t{1} << rank_)) == 0,
                     "shrink: calling rank is in the agreed dead set");

  std::vector<int> survivors;
  int my_new_rank = -1;
  for (int r = 0; r < size(); ++r) {
    if ((mask & (std::uint64_t{1} << r)) != 0) continue;
    if (r == rank_) my_new_rank = static_cast<int>(survivors.size());
    survivors.push_back(r);
  }
  const int creator = survivors.front();
  const std::uint64_t key = kShrinkSeqBase + round;

  std::shared_ptr<Context> child;
  if (rank_ == creator) {
    // Unlike split(), the child KEEPS the fault injector: recovery exists
    // so chaos schedules can keep firing after a shrink. Rules naming
    // specific ranks address the child's dense renumbering from here on.
    child = std::make_shared<Context>(static_cast<int>(survivors.size()),
                                      ctx_->config());
    ctx_->publish_child(key, 0, child);
  } else {
    // Poll rather than block: if the creator dies before publishing, the
    // caller must run another recovery round, which will exclude it.
    for (;;) {
      child = ctx_->try_get_child(key, 0);
      if (child) break;
      if (ctx_->is_killed(rank_)) {
        throw RankKilledError("shrink on a killed rank (fault injection)");
      }
      if (ctx_->is_killed(creator)) {
        throw PeerKilledError(
            creator,
            util::cat("shrink: surviving rank ", creator,
                      " died before publishing the survivor context"));
      }
      if (ctx_->abort_flag().load(std::memory_order_relaxed)) {
        throw CommError("shrink aborted: another rank failed");
      }
      std::this_thread::sleep_for(milliseconds(2));
    }
  }
  if (span.active()) {
    span.arg("survivors", static_cast<std::int64_t>(survivors.size()));
    span.arg("dead_mask", static_cast<std::int64_t>(mask));
    span.arg("new_rank", static_cast<std::int64_t>(my_new_rank));
  }
  return Communicator(std::move(child), my_new_rank);
}

}  // namespace pyhpc::comm
