// In-process SPMD harness: runs the same function on N ranks (threads) over
// a fresh world communicator — the substitute for `mpirun -np N`.
#pragma once

#include <functional>

#include "comm/communicator.hpp"
#include "comm/config.hpp"
#include "comm/stats.hpp"

namespace pyhpc::comm {

/// Runs `fn(comm)` on `nranks` threads, each with its own rank of a shared
/// world. Blocks until every rank returns. If any rank throws, the world is
/// aborted (blocked ranks unblock with CommError) and the first rank's
/// exception is rethrown here after all threads join — except a rank dying
/// of RankKilledError (fault injection), which is contained: that rank
/// simply stops and the rest of the world keeps running.
///
/// With two or more ranks, a watchdog thread observes per-rank blocked
/// state and aborts the world with a who-waits-on-whom DeadlockError once
/// every live rank is blocked (without a deadline) and nothing is in
/// flight, so a wedged program fails loudly instead of hanging forever.
void run(int nranks, const std::function<void(Communicator&)>& fn);

/// As `run`, with explicit world settings (receive deadline, watchdog
/// period, pool width, fault injection, eager threshold).
void run(int nranks, const CommConfig& config,
         const std::function<void(Communicator&)>& fn);

/// As `run`, but returns the world-aggregated communication statistics
/// (including each mailbox's byte high-water mark).
CommStats run_with_stats(int nranks,
                         const std::function<void(Communicator&)>& fn);
CommStats run_with_stats(int nranks, const CommConfig& config,
                         const std::function<void(Communicator&)>& fn);

}  // namespace pyhpc::comm
