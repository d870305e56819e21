// Wire-level message types for the pyhpc in-process message-passing
// substrate. The substrate reproduces MPI's two-sided semantics (tag and
// source matching, non-overtaking delivery per (source, dest) pair) with
// ranks running as threads in one process; see DESIGN.md §2 for why this
// substitution preserves the behaviour the paper depends on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "comm/buffer.hpp"

namespace pyhpc::comm {

/// Matches any source rank in recv/probe.
inline constexpr int kAnySource = -1;
/// Matches any tag in recv/probe.
inline constexpr int kAnyTag = -1;

/// User tags live in [0, kMaxUserTag); larger values are reserved for
/// framework-internal traffic.
inline constexpr int kMaxUserTag = 1 << 28;

/// Layout of the reserved space above kMaxUserTag:
///  - [kMaxUserTag, kMaxUserTag + kCollTagSpan): collective sequencing
///    tags (per-instance sequence number x per-phase slot, see
///    Communicator::coll_tag);
///  - [kInternalP2PBase, ...): framework point-to-point traffic (halo
///    exchanges and similar subsystem protocols) that must never collide
///    with user tags *or* with collective sequencing.
inline constexpr int kCollTagSpan = 1 << 30;
inline constexpr int kInternalP2PBase = kMaxUserTag + kCollTagSpan;

/// Reserved internal tag for ODIN's one-deep halo exchange
/// (odin::shifted_diff / shift).
inline constexpr int kHaloTag = kInternalP2PBase + 0;

/// Reserved internal tag for split-phase tpetra Import/Export payloads
/// (Import::begin_apply / finish). Safe to share across plan instances:
/// applications are collective (same program order on every rank) and
/// per-(source, dest) delivery is FIFO.
inline constexpr int kImportTag = kInternalP2PBase + 1;

/// Reserved internal tags for the ODIN driver/service control plane
/// (odin::DriverContext / odin::ServiceContext). Control payloads and
/// their acks ride two fixed tags; reduce replies are session-tagged —
/// each service session's replies travel on
/// `kDriverReplyBase + session % kDriverReplySpan`, so one session's
/// partials can never be matched by another session's collection loop.
/// (Session ids wrap past the span; dispatch is serialized, so a wrapped
/// id only shares a tag, never interleaves on it.)
inline constexpr int kDriverControlTag = kInternalP2PBase + 2;
inline constexpr int kDriverAckTag = kInternalP2PBase + 3;
inline constexpr int kDriverReplyBase = kInternalP2PBase + 16;
inline constexpr int kDriverReplySpan = 1 << 12;

/// Delivery metadata returned by recv/probe (MPI_Status analogue).
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// One in-flight message. Sends are always eager/buffered — the payload
/// lands in transport storage at send time, so a send never blocks on the
/// receiver (mirrors MPI's eager protocol and removes send-side deadlock by
/// construction). "Buffered" does not imply "copied": the payload is a
/// ref-counted Buffer, so a moved (adopt) send shares the sender's bytes
/// instead of duplicating them, and a fault-injected duplicate shares the
/// original's storage.
///
/// `checksum` is stamped by Context::deliver over (source, tag, payload);
/// receivers verify it before decoding so injected (or real) corruption
/// surfaces as CommIntegrityError instead of silently wrong data.
struct Envelope {
  int source = 0;
  int tag = 0;
  std::uint64_t checksum = 0;
  Buffer payload;
};

/// FNV-1a over the delivery-relevant envelope fields, read a block at a
/// time: each full 32-byte block of the payload feeds four 64-bit lanes
/// one word each (lane = (lane ^ word) * prime), the lanes fold into the
/// hash one word at a time with the same step, and the tail goes byte by
/// byte. A payload under 32 bytes therefore hashes exactly as byte-wise
/// FNV-1a. Every step is a bijection of its state, so a corruption inside
/// one aligned 8-byte word of the blocks, or of any single byte, always
/// changes the checksum (the fault injector flips one byte). Not a
/// cryptographic MAC.
inline std::uint64_t envelope_checksum(const Envelope& env) {
  constexpr std::uint64_t kBasis = 1469598103934665603ULL;  // FNV offset basis
  constexpr std::uint64_t kPrime = 1099511628211ULL;        // FNV prime
  std::uint64_t h = kBasis;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= kPrime;
    }
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(env.source)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(env.tag)));
  mix(env.payload.size());
  const std::byte* p = env.payload.data();
  const std::size_t n = env.payload.size();
  const std::size_t blocked = n - n % 32;  // 0 when empty: p is not read
  if (blocked > 0) {
    std::uint64_t lanes[4] = {kBasis, kBasis, kBasis, kBasis};
    for (std::size_t off = 0; off < blocked; off += 32) {
      for (std::size_t k = 0; k < 4; ++k) {
        std::uint64_t word;
        std::memcpy(&word, p + off + 8 * k, sizeof(word));
        lanes[k] = (lanes[k] ^ word) * kPrime;
      }
    }
    for (std::uint64_t lane : lanes) h = (h ^ lane) * kPrime;
  }
  for (std::size_t i = blocked; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= kPrime;
  }
  return h;
}

}  // namespace pyhpc::comm
