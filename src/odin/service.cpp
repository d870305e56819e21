#include "odin/service.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace pyhpc::odin {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

}  // namespace

// ---- Session ------------------------------------------------------------

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    if (svc_ != nullptr) {
      try {
        svc_->close_session(id_);
      } catch (...) {
        // Best-effort, same as the destructor.
      }
    }
    svc_ = other.svc_;
    id_ = other.id_;
    other.svc_ = nullptr;
  }
  return *this;
}

Session::~Session() {
  if (svc_ == nullptr) return;
  try {
    svc_->close_session(id_);
  } catch (...) {
    // Destructors must not throw; a failed close surfaces through the
    // service's worker-lost paths instead.
  }
}

int Session::create_random(std::int64_t n, std::uint64_t seed) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kCreateRandom;
  m.n = n;
  m.scalar = static_cast<double>(seed);
  return svc_->op(id_, m, /*fresh_result=*/true);
}

int Session::create_full(std::int64_t n, double value) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kCreateFull;
  m.n = n;
  m.scalar = value;
  return svc_->op(id_, m, /*fresh_result=*/true);
}

int Session::unary(const std::string& ufunc, int a) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kUnary;
  m.arg0 = a;
  m.set_name(ufunc);
  return svc_->op(id_, m, /*fresh_result=*/true);
}

int Session::binary(const std::string& ufunc, int a, int b) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kBinary;
  m.arg0 = a;
  m.arg1 = b;
  m.set_name(ufunc);
  return svc_->op(id_, m, /*fresh_result=*/true);
}

int Session::axpy(double alpha, int x, int y) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kAxpy;
  m.arg0 = x;
  m.arg1 = y;
  m.scalar = alpha;
  return svc_->op(id_, m, /*fresh_result=*/true);
}

int Session::block_solve(int b) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kBlockSolve;
  m.arg0 = b;
  return svc_->op(id_, m, /*fresh_result=*/true);
}

void Session::free_array(int id) {
  require(valid(), "Session: handle is closed");
  ControlMessage m;
  m.op = ControlMessage::Op::kFree;
  m.arg0 = id;
  svc_->op(id_, m, /*fresh_result=*/false);
}

double Session::reduce_sum(int a) {
  require(valid(), "Session: handle is closed");
  return svc_->reduce(id_, a);
}

void Session::flush() {
  require(valid(), "Session: handle is closed");
  svc_->flush_session(id_);
}

void Session::close() {
  if (svc_ == nullptr) return;
  ServiceContext* svc = svc_;
  svc_ = nullptr;  // invalidate first: close() below may throw
  svc->close_session(id_);
}

// ---- ServiceContext -----------------------------------------------------

ServiceContext::ServiceContext(comm::Communicator& comm,
                               const ServiceOptions& options)
    : opts_(options), driver_(comm, options.driver) {
  require(opts_.session_queue_limit > 0,
          "ServiceOptions: session_queue_limit must be positive");
  require(opts_.batch_messages > 0,
          "ServiceOptions: batch_messages must be positive");
}

Session ServiceContext::open_session() {
  require(is_driver(), "ServiceContext: sessions are driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  const std::int32_t sid = next_session_++;
  sessions_[sid] = SessionState{};
  metrics().add("service.sessions_opened", 1.0);
  return Session(this, sid);
}

ServiceContext::SessionState& ServiceContext::state_locked(std::int32_t sid) {
  auto it = sessions_.find(sid);
  require(it != sessions_.end() && it->second.open,
          "ServiceContext: session ", sid, " is not open");
  return it->second;
}

void ServiceContext::submit_locked(std::int32_t sid, ControlMessage msg) {
  SessionState& st = state_locked(sid);
  if (st.queue.size() >= opts_.session_queue_limit) {
    if (opts_.overload == OverloadPolicy::kShed) {
      ++sheds_;
      metrics().add("service.sheds", 1.0);
      throw QueueFullError(util::cat(
          "service: session ", sid, " queue full (",
          opts_.session_queue_limit, " messages) — operation shed"));
    }
    // Park: the submitting thread pays for the drain itself. Round-robin
    // dispatch inside flush_locked keeps this fair to other sessions.
    ++parks_;
    metrics().add("service.parks", 1.0);
    flush_locked();
  }
  msg.session = sid;
  if (queued_total_ == 0) window_start_ = std::chrono::steady_clock::now();
  st.queue.push_back(msg);
  ++queued_total_;
  ++submitted_;
  metrics().add("service.messages_submitted", 1.0);
  metrics().set_max("service.queue_highwater",
                    static_cast<double>(queued_total_));
}

void ServiceContext::maybe_flush_locked() {
  if (queued_total_ == 0) return;
  if (queued_total_ >= opts_.batch_messages) {
    flush_locked();
    return;
  }
  const auto waited = std::chrono::steady_clock::now() - window_start_;
  if (waited >= opts_.batch_window) flush_locked();
}

void ServiceContext::flush_locked(const ControlMessage* sync) {
  if (queued_total_ == 0 && sync == nullptr) return;
  obs::Span span("service.flush", "service");
  if (span.active()) {
    span.arg("messages",
             static_cast<std::int64_t>(queued_total_ + (sync ? 1 : 0)));
    span.arg("sessions", static_cast<std::int64_t>(sessions_.size()));
  }
  // Drain round-robin, kSessionQuantum messages per session per turn, so
  // a flooding session's backlog interleaves with (not precedes) everyone
  // else's in the wire batch. rr_cursor_ rotates the starting session
  // across flushes so no session is systematically first.
  std::vector<ControlMessage> wire;
  wire.reserve(queued_total_ + 1);
  std::vector<SessionState*> order;
  order.reserve(sessions_.size());
  for (auto& [sid, st] : sessions_) order.push_back(&st);
  if (!order.empty()) {
    const std::size_t start = rr_cursor_ % order.size();
    rr_cursor_ = (rr_cursor_ + 1) % (order.empty() ? 1 : order.size());
    std::size_t remaining = queued_total_;
    while (remaining > 0) {
      for (std::size_t i = 0; i < order.size() && remaining > 0; ++i) {
        SessionState& st = *order[(start + i) % order.size()];
        for (std::size_t k = 0; k < kSessionQuantum && !st.queue.empty();
             ++k) {
          wire.push_back(st.queue.front());
          st.queue.pop_front();
          --remaining;
        }
      }
    }
  }
  if (sync != nullptr) {
    // The sync point never enters a session queue, so admission control
    // can neither shed nor park it; it still counts as submitted.
    wire.push_back(*sync);
    ++submitted_;
    metrics().add("service.messages_submitted", 1.0);
  }
  queued_total_ = 0;
  ++batches_;
  metrics().add("service.batches_shipped", 1.0);
  metrics().add("service.messages_shipped", static_cast<double>(wire.size()));
  driver_.ship_batch(wire);
}

int ServiceContext::op(std::int32_t sid, ControlMessage msg,
                       bool fresh_result) {
  require(is_driver(), "ServiceContext: operations are driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  if (fresh_result) {
    msg.result_id = state_locked(sid).next_array_id++;
  }
  submit_locked(sid, msg);
  maybe_flush_locked();
  return msg.result_id;
}

double ServiceContext::reduce(std::int32_t sid, int a) {
  require(is_driver(), "ServiceContext: operations are driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  state_locked(sid);  // validate the handle
  // A reduce is a sync point: it rides at the tail of the backlog's batch,
  // so the workers run everything queued before it and the whole round
  // costs one payload per worker.
  ControlMessage m;
  m.op = ControlMessage::Op::kReduceSum;
  m.arg0 = a;
  m.session = sid;
  flush_locked(&m);
  return driver_.collect_reduce(sid);
}

void ServiceContext::flush_session(std::int32_t sid) {
  require(is_driver(), "ServiceContext: flush is driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  state_locked(sid);  // validate the handle
  // Coalescing is global: closing one session's window ships everything.
  flush_locked();
}

void ServiceContext::close_session(std::int32_t sid) {
  require(is_driver(), "ServiceContext: close is driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end() || !it->second.open) return;  // idempotent
  // Sync point, like a reduce: rides at the tail of the flushed batch.
  ControlMessage m;
  m.op = ControlMessage::Op::kCloseSession;
  m.session = sid;
  flush_locked(&m);
  sessions_.erase(sid);
  metrics().add("service.sessions_closed", 1.0);
}

void ServiceContext::shutdown() {
  require(is_driver(), "ServiceContext: shutdown is driver-side only");
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
  // The control plane goes with the shutdown (even one that reports a dead
  // worker); surviving Session handles become no-ops instead of retrying
  // closes against workers that have exited.
  sessions_.clear();
  driver_.shutdown();
}

std::size_t ServiceContext::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::size_t ServiceContext::pending_messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

std::uint64_t ServiceContext::messages_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

std::uint64_t ServiceContext::batches_shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

std::uint64_t ServiceContext::sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sheds_;
}

std::uint64_t ServiceContext::parks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parks_;
}

}  // namespace pyhpc::odin
