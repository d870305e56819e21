// Zero-copy transport tier tests: moved/ref-counted payload buffers, the
// pooled arena, moved vectors under duplicate injection, and the
// regression suites for empty-payload memcpy UB, iprobe error refinement
// and halo-tag byte accounting. Registered under the `faults` CTest label
// and expected to be TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/buffer.hpp"
#include "comm/config.hpp"
#include "comm/fault.hpp"
#include "comm/runner.hpp"
#include "util/error.hpp"

namespace pc = pyhpc::comm;

using namespace std::chrono_literals;

namespace {

pc::CommConfig config_with(std::shared_ptr<pc::FaultInjector> injector) {
  pc::CommConfig cfg;
  cfg.injector = std::move(injector);
  return cfg;
}

std::vector<double> iota_vec(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Buffer unit behaviour
// ---------------------------------------------------------------------------

TEST(Buffer, AdoptedVectorMovesBackOutWithoutCopy) {
  std::vector<double> v = iota_vec(1000);
  const double* storage = v.data();
  pc::Buffer b = pc::Buffer::adopt(std::move(v));
  EXPECT_TRUE(b.zero_copy());
  EXPECT_EQ(b.size(), 1000 * sizeof(double));
  auto out = b.take_vector<double>();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data(), storage);  // same heap block end to end
  EXPECT_EQ((*out)[999], 1000.0);
}

TEST(Buffer, TakeVectorRefusesSharedOrForeignTypes) {
  pc::Buffer b = pc::Buffer::adopt(iota_vec(8));
  pc::Buffer alias = b;  // second reference: move-out must refuse
  EXPECT_FALSE(b.take_vector<double>().has_value());
  // Type mismatch must refuse too (alias is now the sole owner).
  b = pc::Buffer();
  EXPECT_FALSE(alias.take_vector<float>().has_value());
  // Correct type and sole ownership succeeds.
  auto out = alias.take_vector<double>();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 8u);
}

TEST(Buffer, ArenaRecyclesBlocks) {
  pc::BufferArena arena(/*block_bytes=*/256, /*max_free=*/4);
  std::vector<std::byte> payload(100, std::byte{0x5A});
  bool reused = false;
  {
    pc::Buffer first = pc::Buffer::copy_of(
        std::span<const std::byte>(payload), &arena, &reused);
    EXPECT_FALSE(reused);  // first acquisition allocates fresh
  }
  // The block went back to the freelist; the next copy reuses it.
  pc::Buffer second = pc::Buffer::copy_of(
      std::span<const std::byte>(payload), &arena, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(second.data()[0], std::byte{0x5A});
}

TEST(Buffer, OversizedPayloadFallsThroughArena) {
  pc::BufferArena arena(/*block_bytes=*/64, /*max_free=*/4);
  std::vector<std::byte> payload(1024, std::byte{0x01});
  bool reused = true;
  pc::Buffer b = pc::Buffer::copy_of(std::span<const std::byte>(payload),
                                     &arena, &reused);
  EXPECT_FALSE(reused);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(arena.free_blocks(), 0u);  // never entered the pool
}

// ---------------------------------------------------------------------------
// Zero-copy p2p
// ---------------------------------------------------------------------------

TEST(ZeroCopy, MovedSendArrivesIntactAndCounts) {
  pc::run(2, [](pc::Communicator& comm) {
    const std::size_t n = 4096;
    if (comm.rank() == 0) {
      comm.send(iota_vec(n), 1, 7);
      EXPECT_EQ(comm.stats().zero_copy_messages, 1u);
      EXPECT_EQ(comm.stats().zero_copy_bytes, n * sizeof(double));
      // Logical volume books as ordinary p2p; no physical copy happened.
      EXPECT_EQ(comm.stats().p2p_bytes_sent, n * sizeof(double));
      EXPECT_EQ(comm.stats().bytes_copied, 0u);
    } else {
      auto got = comm.recv_vector<double>(0, 7);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[0], 1.0);
      EXPECT_EQ(got[n - 1], static_cast<double>(n));
    }
  });
}

TEST(ZeroCopy, EagerCopySendStillCountsCopies) {
  pc::run(2, [](pc::Communicator& comm) {
    const auto v = iota_vec(100);
    if (comm.rank() == 0) {
      comm.send(std::span<const double>(v), 1, 7);
      EXPECT_EQ(comm.stats().bytes_copied, 100 * sizeof(double));
      EXPECT_EQ(comm.stats().zero_copy_messages, 0u);
    } else {
      auto got = comm.recv_vector<double>(0, 7);
      EXPECT_EQ(got, v);
    }
  });
}

TEST(ZeroCopy, SmallEagerSendsHitTheArena) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) comm.send_value<int>(i, 1, 7);
      // The first send allocates the block; once the receiver starts
      // draining, freed blocks cycle back. Sequential sends on one rank
      // cannot all miss.
      EXPECT_EQ(comm.stats().arena_hits + comm.stats().arena_misses, 8u);
      EXPECT_GE(comm.stats().arena_misses, 1u);
    } else {
      for (int i = 0; i < 8; ++i) EXPECT_EQ(comm.recv_value<int>(0, 7), i);
    }
  });
}

// A duplicated envelope shares the moved vector's storage with the
// original: the first receive finds it shared and copies, the second is
// then the sole owner and moves the sender's storage out. Both decode the
// full payload.
TEST(ZeroCopy, DuplicatedMovedVectorDecodesTwiceOneCopyOneMove) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDuplicate;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  std::atomic<const double*> storage{nullptr};
  pc::run(2, config_with(inj), [&storage](pc::Communicator& comm) {
    const std::size_t n = 1024;
    if (comm.rank() == 0) {
      auto v = iota_vec(n);
      storage = v.data();
      comm.send(std::move(v), 1, 7);
    } else {
      auto first = comm.recv_vector<double>(0, 7);
      auto second = comm.recv_vector<double>(0, 7);
      EXPECT_EQ(first, second);
      ASSERT_EQ(first.size(), n);
      EXPECT_EQ(first[n - 1], static_cast<double>(n));
      EXPECT_NE(first.data(), storage.load());   // shared: copied
      EXPECT_EQ(second.data(), storage.load());  // sole owner: moved
      EXPECT_EQ(comm.stats().p2p_messages_received, 2u);
    }
  });
}

TEST(ZeroCopy, EmptyMovedVectorRoundTrips) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{}, 1, 7);
    } else {
      auto got = comm.recv_vector<double>(0, 7);
      EXPECT_TRUE(got.empty());
    }
  });
}

// ---------------------------------------------------------------------------
// Satellite regression: empty-payload memcpy UB audit. Each typed receive
// path must survive a zero-length message whose payload data() is null
// (memcpy from a null pointer is UB even for size 0). These all crashed
// or invoked UB before the payload-emptiness guards.
// ---------------------------------------------------------------------------

TEST(EmptyPayload, InternalRecvVectorPath) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_internal(std::span<const double>{}, 1, pc::kImportTag);
    } else {
      EXPECT_TRUE(comm.recv_vector_internal<double>(0, pc::kImportTag).empty());
    }
  });
}

TEST(EmptyPayload, StrictRecvPath) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const int>{}, 1, 11);
    } else {
      std::span<int> empty_buf;
      auto st = comm.recv(empty_buf, 0, 11);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(EmptyPayload, RecvVectorPath) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const float>{}, 1, 11);
    } else {
      EXPECT_TRUE(comm.recv_vector<float>(0, 11).empty());
    }
  });
}

TEST(EmptyPayload, GathervWithEmptyContributions) {
  // Odd ranks contribute nothing: their payloads travel as zero-length
  // messages through the coll_recv_exact decode (the gatherv path of the
  // audit).
  pc::run(4, [](pc::Communicator& comm) {
    std::vector<int> mine;
    if (comm.rank() % 2 == 0) mine.assign(2, comm.rank());
    auto parts = comm.gatherv(std::span<const int>(mine), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(parts.size(), 4u);
      EXPECT_EQ(parts[0], (std::vector<int>{0, 0}));
      EXPECT_TRUE(parts[1].empty());
      EXPECT_EQ(parts[2], (std::vector<int>{2, 2}));
      EXPECT_TRUE(parts[3].empty());
    }
  });
}

TEST(EmptyPayload, AlltoallvWithEmptyParts) {
  pc::run(3, [](pc::Communicator& comm) {
    // Rank r sends r+1 elements to rank 0 and nothing to anyone else.
    std::vector<std::vector<int>> parts(3);
    parts[0].assign(static_cast<std::size_t>(comm.rank()) + 1, comm.rank());
    auto got = comm.alltoallv(std::move(parts));
    if (comm.rank() == 0) {
      EXPECT_EQ(got[0].size(), 1u);
      EXPECT_EQ(got[1].size(), 2u);
      EXPECT_EQ(got[2].size(), 3u);
    } else {
      EXPECT_TRUE(got[0].empty());
      EXPECT_TRUE(got[1].empty());
      EXPECT_TRUE(got[2].empty());
    }
  });
}

// ---------------------------------------------------------------------------
// Satellite regression: iprobe error refinement. iprobe used to bypass
// probe's killed-rank/revocation/abort handling entirely and return
// nullopt forever; a poll loop over a dead peer would spin for good.
// ---------------------------------------------------------------------------

TEST(IProbe, PeerDeathBetweenPollsSurfacesAsPeerKilledError) {
  auto inj = std::make_shared<pc::FaultInjector>(/*seed=*/1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 9;
  rule.victim = 1;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      // Nothing matches tag 5 yet; the send on tag 9 triggers the kill
      // (and goes down with this rank).
      std::this_thread::sleep_for(20ms);
      comm.send_value<int>(0, 0, 9);
      return;
    }
    // Before the kill: polls return nullopt, not an error.
    EXPECT_FALSE(comm.iprobe(1, 5).has_value());
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    EXPECT_THROW(
        {
          while (std::chrono::steady_clock::now() < deadline) {
            (void)comm.iprobe(1, 5);
            std::this_thread::sleep_for(1ms);
          }
        },
        pyhpc::PeerKilledError);
  });
}

TEST(IProbe, QueuedMessageFromDeadPeerIsStillDeliverable) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 9;
  rule.victim = 1;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(41, 0, 5);  // delivered before the death
      std::this_thread::sleep_for(20ms);
      comm.send_value<int>(0, 0, 9);   // triggers the kill
      return;
    }
    // Wait until the death is observable, then iprobe: the queued message
    // must match before any peer-killed refinement.
    while (!comm.rank_dead(1)) std::this_thread::sleep_for(1ms);
    auto st = comm.iprobe(1, 5);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->bytes, sizeof(int));
    EXPECT_EQ(comm.recv_value<int>(1, 5), 41);
    // Mailbox drained: now the refinement fires.
    EXPECT_THROW((void)comm.iprobe(1, 5), pyhpc::PeerKilledError);
  });
}

// ---------------------------------------------------------------------------
// Satellite regression: byte accounting on the internal halo tag. A
// zero-copy send must report the logical volume in p2p_bytes_sent while
// bytes_copied stays flat — the invariant the overlap benches assert on.
// ---------------------------------------------------------------------------

TEST(ByteAccounting, HaloTagZeroCopySendSplitsLogicalAndPhysical) {
  pc::run(2, [](pc::Communicator& comm) {
    const std::size_t n = 2048;
    if (comm.rank() == 0) {
      comm.send_internal(iota_vec(n), 1, pc::kHaloTag);
      const auto& s = comm.stats();
      EXPECT_EQ(s.p2p_bytes_sent, n * sizeof(double));  // logical volume
      EXPECT_EQ(s.bytes_copied, 0u);                    // no physical copy
      EXPECT_EQ(s.zero_copy_bytes, n * sizeof(double));
      EXPECT_EQ(s.zero_copy_messages, 1u);
      EXPECT_EQ(s.coll_bytes_sent, 0u);  // internal p2p is not a collective
    } else {
      auto got = comm.recv_vector_internal<double>(0, pc::kHaloTag);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[n - 1], static_cast<double>(n));
      EXPECT_EQ(comm.stats().p2p_bytes_received, n * sizeof(double));
    }
  });
}
