// Error types and lightweight contract checks shared by every pyhpc module.
//
// The library throws exceptions derived from pyhpc::Error; each module uses
// the subclass matching the failure domain so callers can discriminate
// (e.g. catch ShapeError from ODIN ufuncs without catching CommError).
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/string_util.hpp"

namespace pyhpc {

/// Root of the pyhpc exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Failure inside the message-passing substrate (bad rank, truncation, ...).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// An envelope arrived whose checksum does not match its contents (detected
/// wire corruption — injected by comm::FaultInjector or a genuine bug).
class CommIntegrityError : public CommError {
 public:
  explicit CommIntegrityError(const std::string& what) : CommError(what) {}
};

/// A blocking receive/probe exceeded its deadline. Distinct from the abort
/// path so callers can retry (the ODIN driver's ack protocol does).
class RecvTimeoutError : public CommError {
 public:
  explicit RecvTimeoutError(const std::string& what) : CommError(what) {}
};

/// The runner watchdog found every live rank blocked with nothing in
/// flight; carries the who-waits-on-whom report.
class DeadlockError : public CommError {
 public:
  explicit DeadlockError(const std::string& what) : CommError(what) {}
};

/// Thrown inside a rank that has been killed by fault injection the next
/// time it touches the substrate; the runner treats it as a simulated crash
/// of that rank alone, not a world abort.
class RankKilledError : public CommError {
 public:
  explicit RankKilledError(const std::string& what) : CommError(what) {}
};

/// A collective-internal receive noticed that the peer it was waiting on
/// has been killed (ULFM-style fast failure detection). Derived from
/// RankKilledError so "a rank died" can be caught uniformly, but carries
/// the *dead peer's* rank: the throwing rank itself is alive and can run
/// revoke/agree/shrink recovery.
class PeerKilledError : public RankKilledError {
 public:
  PeerKilledError(int dead_rank, const std::string& what)
      : RankKilledError(what), dead_rank_(dead_rank) {}
  int dead_rank() const { return dead_rank_; }

 private:
  int dead_rank_;
};

/// The communicator has been revoked (MPI_Comm_revoke analogue): every
/// in-flight and future operation on it fails so all surviving ranks fall
/// out of whatever they were blocked in and can join the recovery.
class RevokedError : public CommError {
 public:
  explicit RevokedError(const std::string& what) : CommError(what) {}
};

/// The ODIN driver lost a worker rank (it died or stopped acknowledging);
/// names the dead rank so callers can degrade gracefully.
class WorkerLostError : public CommError {
 public:
  explicit WorkerLostError(const std::string& what) : CommError(what) {}
};

/// A driver-service session's bounded submit queue is full and the
/// admission policy is shed: the operation was rejected (never queued,
/// never executed). Callers may retry after a sync point drains the queue.
class QueueFullError : public Error {
 public:
  explicit QueueFullError(const std::string& what) : Error(what) {}
};

/// Checkpoint store inconsistency: a restore asked for a range no complete
/// snapshot covers (a rank died before finishing that version's saves).
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// Distributed-object inconsistency (incompatible maps, not fill-complete...).
class MapError : public Error {
 public:
  explicit MapError(const std::string& what) : Error(what) {}
};

/// ODIN array shape / distribution conformance failure.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error(what) {}
};

/// Numerical breakdown (singular pivot, indefinite operator, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Seamless front-end failure (lex/parse/type errors carry line info).
class CompileError : public Error {
 public:
  explicit CompileError(const std::string& what) : Error(what) {}
};

/// Seamless runtime failure inside interpreted/compiled MiniPy code.
class RuntimeFault : public Error {
 public:
  explicit RuntimeFault(const std::string& what) : Error(what) {}
};

namespace detail {
/// The failing half of require(), out of line and marked cold so a passing
/// check compiles to one predictable branch. Array parts arrive decayed to
/// pointers: one instantiation per part-type list, not per literal length.
template <class E, class... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void throw_formatted(
    const Parts&... parts) {
  throw E(util::cat(parts...));
}
}  // namespace detail

/// Contract check: throws E when `cond` is false, with the message
/// util::cat(parts...). The parts are streamed only on failure, so pass the
/// pieces of the message (`require(ok, "row ", r, " not owned")`), never a
/// message built before the call — tools/check_source.sh enforces this.
template <class E = InvalidArgument, class... Parts>
inline void require(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]] {
    detail::throw_formatted<E, std::decay_t<const Parts>...>(parts...);
  }
}

}  // namespace pyhpc
