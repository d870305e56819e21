// Per-rank communication counters.
//
// The paper says the ODIN prototype's emphasis is "instrumentation to help
// identify performance bottlenecks associated with different communication
// patterns"; CommStats is that instrumentation. Benches report these
// counters because they are machine-independent: they capture the *shape*
// of an algorithm's communication (O(boundary) halo traffic, tens-of-bytes
// control messages, shuffle volume) regardless of how fast the host is.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace pyhpc::comm {

struct CommStats {
  // User-level point-to-point traffic.
  std::uint64_t p2p_messages_sent = 0;
  std::uint64_t p2p_bytes_sent = 0;
  std::uint64_t p2p_messages_received = 0;
  std::uint64_t p2p_bytes_received = 0;
  // Traffic generated inside collectives (tagged internally).
  std::uint64_t coll_messages_sent = 0;
  std::uint64_t coll_bytes_sent = 0;
  std::uint64_t coll_messages_received = 0;
  std::uint64_t coll_bytes_received = 0;
  // Number of collective operations entered.
  std::uint64_t collectives = 0;
  // Resilience counters (detection side — what the layer *observed*; the
  // injection side lives in FaultInjector::counts).
  std::uint64_t retries = 0;              // payload retransmissions
  std::uint64_t timeouts = 0;             // recv/probe deadline expiries
  std::uint64_t drops_detected = 0;       // losses inferred from missing acks
  std::uint64_t corruption_detected = 0;  // checksum mismatches caught
  // Largest number of payload bytes ever buffered in one mailbox —
  // observability for unbounded eager-send buffering (aggregated with max,
  // not sum).
  std::uint64_t mailbox_highwater_bytes = 0;
  // Messages captured by a PendingRecv handle and re-queued because the
  // handle was destroyed before wait() consumed them.
  std::uint64_t pending_requeued = 0;
  // Transport-tier accounting. p2p/coll byte counters above record
  // *logical* volume (what the program shipped); these record what the
  // transport physically did with it. bytes_copied counts payload bytes
  // memcpy'd into transport storage at send time (the eager path);
  // zero_copy_* count sends whose payload was moved or aliased instead.
  std::uint64_t bytes_copied = 0;
  std::uint64_t zero_copy_messages = 0;
  std::uint64_t zero_copy_bytes = 0;
  // Rendezvous handoffs: isend payloads above CommConfig::eager_threshold
  // that aliased caller memory and completed via SendFuture.
  std::uint64_t rendezvous = 0;
  // Pooled-arena outcomes for eager copies: a hit recycled a freelisted
  // block, a miss allocated a fresh one (or fell through to the heap).
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_misses = 0;
  // Collective schedule selection: how many collectives ran each
  // algorithm (bucketed here instead of the metrics registry so the hot
  // path stays lock-free; the obs bridge folds them into gauges).
  std::uint64_t algo_linear = 0;
  std::uint64_t algo_recursive_doubling = 0;
  std::uint64_t algo_rabenseifner = 0;
  std::uint64_t algo_ring = 0;
  std::uint64_t algo_bruck = 0;
  std::uint64_t algo_binomial = 0;

  std::uint64_t total_messages_sent() const {
    return p2p_messages_sent + coll_messages_sent;
  }
  std::uint64_t total_bytes_sent() const {
    return p2p_bytes_sent + coll_bytes_sent;
  }

  void reset() { *this = CommStats{}; }

  CommStats& operator+=(const CommStats& o) {
    p2p_messages_sent += o.p2p_messages_sent;
    p2p_bytes_sent += o.p2p_bytes_sent;
    p2p_messages_received += o.p2p_messages_received;
    p2p_bytes_received += o.p2p_bytes_received;
    coll_messages_sent += o.coll_messages_sent;
    coll_bytes_sent += o.coll_bytes_sent;
    coll_messages_received += o.coll_messages_received;
    coll_bytes_received += o.coll_bytes_received;
    collectives += o.collectives;
    retries += o.retries;
    timeouts += o.timeouts;
    drops_detected += o.drops_detected;
    corruption_detected += o.corruption_detected;
    mailbox_highwater_bytes =
        std::max(mailbox_highwater_bytes, o.mailbox_highwater_bytes);
    pending_requeued += o.pending_requeued;
    bytes_copied += o.bytes_copied;
    zero_copy_messages += o.zero_copy_messages;
    zero_copy_bytes += o.zero_copy_bytes;
    rendezvous += o.rendezvous;
    arena_hits += o.arena_hits;
    arena_misses += o.arena_misses;
    algo_linear += o.algo_linear;
    algo_recursive_doubling += o.algo_recursive_doubling;
    algo_rabenseifner += o.algo_rabenseifner;
    algo_ring += o.algo_ring;
    algo_bruck += o.algo_bruck;
    algo_binomial += o.algo_binomial;
    return *this;
  }

  std::string to_string() const;
};

}  // namespace pyhpc::comm
