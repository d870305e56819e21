#include "odin/driver.hpp"

#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "odin/ufunc.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"

namespace pyhpc::odin {

namespace {

// Wire format of one control payload: a 16-byte native-endian
// [epoch u64][sequence u64] header followed by the packed ControlMessages.
// Both encode and decode guard the messages memcpy on emptiness — a
// zero-message payload (possible through ship_batch retransmission paths)
// must not touch data() of an empty region (the memcpy-on-empty UB class
// fixed for the p2p decode paths in earlier PRs).
constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint64_t);

struct FrameHeader {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

std::vector<std::byte> encode_payload(const std::vector<ControlMessage>& batch,
                                      std::uint64_t epoch, std::uint64_t seq) {
  std::vector<std::byte> raw(kFrameHeaderBytes +
                             batch.size() * sizeof(ControlMessage));
  FrameHeader hdr{epoch, seq};
  std::memcpy(raw.data(), &hdr, kFrameHeaderBytes);
  if (!batch.empty()) {
    std::memcpy(raw.data() + kFrameHeaderBytes, batch.data(),
                batch.size() * sizeof(ControlMessage));
  }
  return raw;
}

FrameHeader decode_payload(const std::vector<std::byte>& raw,
                           std::vector<ControlMessage>& batch) {
  require<CommError>(
      raw.size() >= kFrameHeaderBytes &&
          (raw.size() - kFrameHeaderBytes) % sizeof(ControlMessage) == 0,
      "worker: malformed control payload");
  FrameHeader hdr;
  std::memcpy(&hdr, raw.data(), kFrameHeaderBytes);
  batch.resize((raw.size() - kFrameHeaderBytes) / sizeof(ControlMessage));
  if (!batch.empty()) {
    std::memcpy(batch.data(), raw.data() + kFrameHeaderBytes,
                batch.size() * sizeof(ControlMessage));
  }
  return hdr;
}

// Thomas-algorithm setup for the fixed tridiag(-1, 2, -1) system of local
// size m: the value-independent forward-elimination coefficients. This is
// the artifact the worker-side SetupCache amortizes across repeated
// same-structure solves (DESIGN.md §10).
struct TridiagSetup {
  std::vector<double> cp;         // modified superdiagonal c'_i
  std::vector<double> inv_denom;  // 1 / (b_i - a_i c'_{i-1})
};

std::shared_ptr<TridiagSetup> build_tridiag_setup(std::size_t m) {
  auto s = std::make_shared<TridiagSetup>();
  s->cp.resize(m);
  s->inv_denom.resize(m);
  double prev_cp = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    // a_i = -1 (sub), b_i = 2, c_i = -1 (super); denom = b - a * c'_{i-1}.
    const double denom = 2.0 + prev_cp;
    s->inv_denom[i] = 1.0 / denom;
    s->cp[i] = -1.0 * s->inv_denom[i];
    prev_cp = s->cp[i];
  }
  return s;
}

void tridiag_solve(const TridiagSetup& s, const std::vector<double>& rhs,
                   std::vector<double>& x) {
  const std::size_t m = rhs.size();
  x.resize(m);
  if (m == 0) return;
  // Forward sweep: d'_i = (d_i - a_i d'_{i-1}) / denom_i with a_i = -1.
  double prev = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    prev = (rhs[i] + prev) * s.inv_denom[i];
    x[i] = prev;
  }
  // Back substitution: x_i = d'_i - c'_i x_{i+1}.
  for (std::size_t i = m - 1; i-- > 0;) {
    x[i] -= s.cp[i] * x[i + 1];
  }
}

std::uint64_t segment_key(std::int32_t session, std::int32_t id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(session))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
}

}  // namespace

DriverContext::DriverContext(comm::Communicator& comm,
                             const DriverOptions& options)
    : comm_(&comm), opts_(options) {
  require(comm.size() >= 2,
          "DriverContext: need at least one worker besides the driver");
  require(opts_.max_retries >= 0,
          "DriverOptions: max_retries must be >= 0");
  require(opts_.setup_cache_capacity > 0,
          "DriverOptions: setup_cache_capacity must be positive");
  setup_cache_ = std::make_unique<util::SetupCache>(
      opts_.setup_cache_capacity, "service.cache");
}

// Workers partition [0, n) in near-equal blocks by worker index.
std::int64_t DriverContext::local_count(std::int64_t n) const {
  const int w = comm_->rank() - 1;
  const int nw = num_workers();
  return n / nw + (w < n % nw ? 1 : 0);
}

void DriverContext::raise_worker_lost(int worker, const char* during) const {
  throw WorkerLostError(util::cat("worker rank ", worker, " died during ",
                                  during,
                                  " (fault injection or crash); its segment "
                                  "data is lost"));
}

void DriverContext::send_payload(int worker,
                                 const std::vector<ControlMessage>& batch,
                                 std::uint64_t seq) {
  const auto raw = encode_payload(batch, opts_.epoch, seq);
  comm_->send_internal(std::span<const std::byte>(raw), worker, kControlTag);
  ++payloads_;
  messages_ += batch.size();
  bytes_ += batch.size() * sizeof(ControlMessage);
}

void DriverContext::await_ack_or_retry(
    int worker, const std::vector<ControlMessage>& batch, std::uint64_t seq) {
  obs::Span span("driver.await_ack", "odin");
  if (span.active()) {
    span.arg("worker", static_cast<std::int64_t>(worker));
    span.arg("seq", static_cast<std::int64_t>(seq));
  }
  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    if (attempt > 0) {
      auto& s = comm_->stats();
      ++s.retries;
      ++s.drops_detected;  // a missing ack means payload or ack was lost
      obs::instant("driver.retransmit", "odin");
      obs::MetricsRegistry::global().add("driver.retransmits", 1.0);
      send_payload(worker, batch, seq);
    }
    try {
      for (;;) {
        const auto ack = comm_->recv_value_within<AckFrame>(
            opts_.ack_timeout, worker, kAckTag);
        if (ack.epoch != opts_.epoch) {
          // Ack addressed to a previous driver generation over this comm;
          // its sequence numbers live in a different namespace, so even a
          // large ack.seq proves nothing about *our* payload. Drop it.
          obs::MetricsRegistry::global().add("driver.stale_epoch_acks", 1.0);
          continue;
        }
        if (ack.seq >= seq) return;
        // Stale ack from an earlier duplicate delivery; keep waiting.
      }
    } catch (const PeerKilledError&) {
      // Fast-path death detection: the receive failed the moment the
      // worker died instead of waiting out the ack timeout.
      raise_worker_lost(worker, "control payload acknowledgement");
    } catch (const RecvTimeoutError&) {
      if (comm_->rank_dead(worker)) {
        raise_worker_lost(worker, "control payload acknowledgement");
      }
      // Lost payload or lost ack: fall through and retransmit.
    } catch (const CommIntegrityError&) {
      // Corrupted ack: treat as lost and retransmit. (The worker dedups the
      // retransmission by sequence number and simply re-acks.)
    }
  }
  throw CommError(util::cat("driver: no ack from worker rank ", worker,
                            " for control payload ", seq, " after ",
                            opts_.max_retries, " retries"));
}

void DriverContext::ship_batch(const std::vector<ControlMessage>& batch) {
  require(is_driver(), "DriverContext: ship_batch is driver-side only");
  if (batch.empty()) return;
  obs::Span span("driver.ship", "odin");
  if (span.active()) {
    span.arg("messages", static_cast<std::int64_t>(batch.size()));
    span.arg("workers", static_cast<std::int64_t>(comm_->size() - 1));
  }
  obs::MetricsRegistry::global().add("driver.payloads_shipped", 1.0);
  const std::uint64_t seq = ++seq_;
  for (int w = 1; w < comm_->size(); ++w) send_payload(w, batch, seq);
  // Deliver everywhere and collect every live ack before reporting a
  // casualty, so one dead worker cannot stop a payload (a shutdown in
  // particular) from completing on the live ones.
  int first_dead = -1;
  for (int w = 1; w < comm_->size(); ++w) {
    if (!comm_->rank_dead(w)) {
      try {
        await_ack_or_retry(w, batch, seq);
        continue;
      } catch (const WorkerLostError&) {
      }
    }
    if (first_dead < 0) first_dead = w;
  }
  if (first_dead >= 0) {
    raise_worker_lost(first_dead, "control payload acknowledgement");
  }
}

double DriverContext::collect_reduce(std::int32_t session) {
  require(is_driver(), "DriverContext: collect_reduce is driver-side only");
  const int tag = reply_tag(session);
  double total = 0.0;
  for (int w = 1; w < comm_->size(); ++w) {
    if (comm_->rank_dead(w)) raise_worker_lost(w, "reduce_sum");
    try {
      total += comm_->recv_value_within<double>(opts_.reply_timeout, w, tag);
    } catch (const PeerKilledError&) {
      raise_worker_lost(w, "reduce_sum");
    } catch (const RecvTimeoutError&) {
      if (comm_->rank_dead(w)) raise_worker_lost(w, "reduce_sum");
      throw;
    }
  }
  return total;
}

void DriverContext::shutdown() {
  ControlMessage m;
  m.op = ControlMessage::Op::kShutdown;
  ship_batch({m});
}

void DriverContext::worker_loop() {
  require(!is_driver(), "DriverContext: worker_loop is worker-side only");
  bool running = true;
  while (running) {
    std::vector<std::byte> raw;
    try {
      comm_->recv_bytes(raw, 0, kControlTag);
    } catch (const CommIntegrityError&) {
      // Corrupted payload: discard it (counted in CommStats by the
      // receive path); the driver retransmits on the missing ack.
      continue;
    }
    std::vector<ControlMessage> batch;
    const FrameHeader hdr = decode_payload(raw, batch);
    if (hdr.epoch != opts_.epoch) {
      // Payload from a different driver generation over the same comm
      // (e.g. a duplicate still in flight when the old context was torn
      // down). Its sequence numbers belong to another namespace: do NOT
      // touch last_seq_, do NOT execute, do NOT ack — the sender is gone.
      obs::instant("driver.stale_epoch_payload", "odin");
      obs::MetricsRegistry::global().add("driver.stale_epoch_payloads", 1.0);
      continue;
    }
    if (hdr.seq <= last_seq_) {
      // Retransmission or injected duplicate of a payload already
      // executed: just re-ack so the driver stops retrying.
      obs::instant("driver.duplicate_payload", "odin");
      obs::MetricsRegistry::global().add("driver.duplicate_payloads", 1.0);
      comm_->send_value_internal(AckFrame{opts_.epoch, hdr.seq}, 0, kAckTag);
      continue;
    }
    last_seq_ = hdr.seq;
    for (const auto& msg : batch) {
      try {
        execute(msg, running);
      } catch (const CommError&) {
        // Substrate failure (killed rank, revoked comm): the loop cannot
        // continue meaningfully — propagate to the runner.
        throw;
      } catch (const std::exception&) {
        // One bad control message (dangling array id, unknown ufunc,
        // size mismatch — typically one misbehaving service session) must
        // not take the worker down for everyone else. Count it; a failed
        // reduce still replies (NaN) so the driver's collection loop
        // never times out waiting for a partial that will not come.
        obs::MetricsRegistry::global().add("driver.worker_op_errors", 1.0);
        if (msg.op == ControlMessage::Op::kReduceSum) {
          comm_->send_value_internal(std::numeric_limits<double>::quiet_NaN(),
                                     0, reply_tag(msg.session));
        }
      }
      if (!running) break;
    }
    obs::MetricsRegistry::global().add("driver.acks_sent", 1.0);
    comm_->send_value_internal(AckFrame{opts_.epoch, hdr.seq}, 0, kAckTag);
  }
}

std::vector<double>& DriverContext::segment(std::int32_t session,
                                            std::int32_t id) {
  return segments_[segment_key(session, id)];
}

const std::vector<double>& DriverContext::segment_at(std::int32_t session,
                                                     std::int32_t id) const {
  auto it = segments_.find(segment_key(session, id));
  require(it != segments_.end(),
          "driver worker: unknown array id ", id, " in session ", session);
  return it->second;
}

void DriverContext::execute(const ControlMessage& msg, bool& running) {
  using Op = ControlMessage::Op;
  switch (msg.op) {
    case Op::kCreateRandom: {
      auto& seg = segment(msg.session, msg.result_id);
      seg.resize(static_cast<std::size_t>(local_count(msg.n)));
      util::Xoshiro256 rng(static_cast<std::uint64_t>(msg.scalar),
                           static_cast<std::uint64_t>(comm_->rank()));
      for (auto& x : seg) x = rng.next_double();
      break;
    }
    case Op::kCreateFull: {
      auto& seg = segment(msg.session, msg.result_id);
      seg.assign(static_cast<std::size_t>(local_count(msg.n)), msg.scalar);
      break;
    }
    case Op::kUnary: {
      const auto& fn = UfuncRegistry::builtin().unary(msg.get_name());
      const auto& in = segment_at(msg.session, msg.arg0);
      auto& out = segment(msg.session, msg.result_id);
      out.resize(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = fn(in[i]);
      break;
    }
    case Op::kBinary: {
      const auto& fn = UfuncRegistry::builtin().binary(msg.get_name());
      const auto& a = segment_at(msg.session, msg.arg0);
      const auto& b = segment_at(msg.session, msg.arg1);
      require(a.size() == b.size(), "driver worker: segment size mismatch");
      auto& out = segment(msg.session, msg.result_id);
      out.resize(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = fn(a[i], b[i]);
      break;
    }
    case Op::kAxpy: {
      const auto& x = segment_at(msg.session, msg.arg0);
      const auto& y = segment_at(msg.session, msg.arg1);
      require(x.size() == y.size(), "driver worker: segment size mismatch");
      auto& out = segment(msg.session, msg.result_id);
      out.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = msg.scalar * x[i] + y[i];
      }
      break;
    }
    case Op::kBlockSolve: {
      const auto& rhs = segment_at(msg.session, msg.arg0);
      const auto setup = setup_cache_->get_or_build<TridiagSetup>(
          util::cat("tridiag:", rhs.size()),
          [&] { return build_tridiag_setup(rhs.size()); });
      auto& out = segment(msg.session, msg.result_id);
      tridiag_solve(*setup, rhs, out);
      break;
    }
    case Op::kReduceSum: {
      const auto& a = segment_at(msg.session, msg.arg0);
      double partial = 0.0;
      for (double v : a) partial += v;
      comm_->send_value_internal(partial, 0, reply_tag(msg.session));
      break;
    }
    case Op::kFree:
      segments_.erase(segment_key(msg.session, msg.arg0));
      break;
    case Op::kCloseSession: {
      // Drop every segment in [session << 32, (session + 1) << 32).
      const auto lo = segments_.lower_bound(segment_key(msg.session, 0));
      const auto hi = segments_.lower_bound(
          segment_key(msg.session, 0) + (1ULL << 32));
      segments_.erase(lo, hi);
      break;
    }
    case Op::kShutdown:
      running = false;
      break;
  }
}

}  // namespace pyhpc::odin
