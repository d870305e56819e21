// Zero-copy transport tier tests: moved/ref-counted payload buffers, the
// pooled arena, eager-vs-rendezvous isend, future-based completion, the
// progress()-driven non-blocking collectives, and the regression suites of
// the PR's bugfix satellites (empty-payload memcpy UB, iprobe error
// refinement, halo-tag byte accounting, requeue x zero-copy under fault
// injection). Registered under the `faults` CTest label and expected to be
// TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
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

TEST(EmptyPayload, PendingRecvDecodePath) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const double>{}, 1, 11);
    } else {
      auto req = comm.irecv(0, 11);
      auto env = req.wait();
      auto vals = pc::PendingRecv::decode<double>(env);
      EXPECT_TRUE(vals.empty());
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
      auto req = comm.irecv_internal(0, pc::kHaloTag);
      auto got = pc::PendingRecv::take<double>(req.wait());
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[n - 1], static_cast<double>(n));
      EXPECT_EQ(comm.stats().p2p_bytes_received, n * sizeof(double));
    }
  });
}

// ---------------------------------------------------------------------------
// Rendezvous isend
// ---------------------------------------------------------------------------

TEST(Rendezvous, LargeIsendCompletesWhenReceiverDrains) {
  pc::CommConfig cfg;
  cfg.eager_threshold = 256;  // force rendezvous for the 8 KiB payload
  pc::run(2, cfg, [](pc::Communicator& comm) {
    const auto v = iota_vec(1024);
    if (comm.rank() == 0) {
      auto fut = comm.isend(std::span<const double>(v), 1, 7);
      fut.wait();  // buffer is ours again only after the receiver let go
      EXPECT_TRUE(fut.ready());
      const auto& s = comm.stats();
      EXPECT_EQ(s.rendezvous, 1u);
      EXPECT_EQ(s.bytes_copied, 0u);  // the envelope aliased `v`
      EXPECT_EQ(s.p2p_bytes_sent, 1024 * sizeof(double));
    } else {
      auto got = comm.recv_vector<double>(0, 7);
      EXPECT_EQ(got, v);
    }
  });
}

TEST(Rendezvous, SmallIsendStaysEagerAndIsImmediatelyReady) {
  pc::run(2, [](pc::Communicator& comm) {
    const auto v = iota_vec(16);  // 128 B, below the default threshold
    if (comm.rank() == 0) {
      auto fut = comm.isend(std::span<const double>(v), 1, 7);
      EXPECT_TRUE(fut.ready());  // copied out at post time
      EXPECT_EQ(comm.stats().rendezvous, 0u);
      EXPECT_EQ(comm.stats().bytes_copied, 16 * sizeof(double));
      fut.wait();  // no-op
    } else {
      EXPECT_EQ(comm.recv_vector<double>(0, 7), v);
    }
  });
}

TEST(Rendezvous, DroppedEnvelopeStillReleasesTheSender) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDrop;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  pc::CommConfig cfg = config_with(inj);
  cfg.eager_threshold = 256;
  pc::run(2, cfg, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      const auto v = iota_vec(1024);
      auto fut = comm.isend(std::span<const double>(v), 1, 7);
      // The drop destroys the only reference; MPI completion semantics
      // ("buffer reusable") must hold even though nothing was delivered.
      fut.wait();
      EXPECT_TRUE(fut.ready());
    } else {
      std::vector<std::byte> buf;
      EXPECT_THROW((void)comm.recv_bytes_within(150ms, buf, 0, 7),
                   pyhpc::RecvTimeoutError);
    }
  });
}

TEST(Rendezvous, DuplicatedEnvelopeCompletesOnlyAfterBothCopiesDrain) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDuplicate;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  pc::CommConfig cfg = config_with(inj);
  cfg.eager_threshold = 256;
  pc::run(2, cfg, [](pc::Communicator& comm) {
    const auto v = iota_vec(1024);
    if (comm.rank() == 0) {
      auto fut = comm.isend(std::span<const double>(v), 1, 7);
      fut.wait();  // both the original and the injected copy must drain
      EXPECT_TRUE(fut.ready());
    } else {
      // Both copies alias the same ref-counted buffer; both decode.
      EXPECT_EQ(comm.recv_vector<double>(0, 7), v);
      EXPECT_EQ(comm.recv_vector<double>(0, 7), v);
    }
  });
}

TEST(Rendezvous, CorruptionClonesInsteadOfMutatingTheSharedBuffer) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kCorrupt;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  pc::CommConfig cfg = config_with(inj);
  cfg.eager_threshold = 256;
  pc::run(2, cfg, [](pc::Communicator& comm) {
    const auto v = iota_vec(1024);
    if (comm.rank() == 0) {
      auto original = v;
      auto fut = comm.isend(std::span<const double>(original), 1, 7);
      fut.wait();  // the tampering clone released the aliased buffer
      // In-place tampering would have damaged our live send buffer.
      EXPECT_EQ(original, v);
    } else {
      EXPECT_THROW((void)comm.recv_vector<double>(0, 7),
                   pyhpc::CommIntegrityError);
    }
  });
}

// ---------------------------------------------------------------------------
// PendingRecv destruction-requeue x zero-copy envelopes under injection
// ---------------------------------------------------------------------------

TEST(RequeueZeroCopy, AbandonedCaptureRequeuesMovedPayloadIntact) {
  pc::run(2, [](pc::Communicator& comm) {
    const std::size_t n = 2048;
    if (comm.rank() == 0) {
      comm.send(iota_vec(n), 1, 7);
    } else {
      {
        pc::PendingRecv req = comm.irecv(0, 7);
        while (!req.ready()) std::this_thread::sleep_for(1ms);
        // Handle dies with the captured zero-copy envelope unconsumed.
      }
      EXPECT_EQ(comm.stats().pending_requeued, 1u);
      // The requeued envelope still move-decodes end to end.
      auto got = comm.recv_vector<double>(0, 7);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[n - 1], static_cast<double>(n));
      EXPECT_EQ(comm.stats().p2p_messages_received, 1u);  // counted once
    }
  });
}

TEST(RequeueZeroCopy, RequeueUnderDuplicateInjectionKeepsBothCopies) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDuplicate;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    const std::size_t n = 1024;
    if (comm.rank() == 0) {
      comm.send(iota_vec(n), 1, 7);
    } else {
      {
        pc::PendingRecv req = comm.irecv(0, 7);
        while (!req.ready()) std::this_thread::sleep_for(1ms);
      }
      // Both the requeued capture and the injected duplicate arrive; the
      // two envelopes share one ref-counted buffer, so the first take
      // copies (shared) and the second moves (sole owner) — both decode
      // to the full payload.
      auto first = comm.recv_vector<double>(0, 7);
      auto second = comm.recv_vector<double>(0, 7);
      EXPECT_EQ(first, second);
      ASSERT_EQ(first.size(), n);
      EXPECT_EQ(first[0], 1.0);
    }
  });
}

TEST(RequeueZeroCopy, DropInjectionAbandonedHandleIsHarmless) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDrop;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 7;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(iota_vec(512), 1, 7);
      comm.send_value<int>(1, 1, 8);  // unaffected end marker
    } else {
      {
        pc::PendingRecv req = comm.irecv(0, 7);
        // The payload was dropped: ready() stays false; destroying the
        // empty handle must not requeue or miscount anything.
        EXPECT_FALSE(req.ready());
      }
      EXPECT_EQ(comm.stats().pending_requeued, 0u);
      EXPECT_EQ(comm.recv_value<int>(0, 8), 1);
    }
  });
}

TEST(RequeueZeroCopy, RendezvousCaptureRequeuedThenConsumedReleasesSender) {
  pc::CommConfig cfg;
  cfg.eager_threshold = 256;
  pc::run(2, cfg, [](pc::Communicator& comm) {
    const auto v = iota_vec(1024);
    if (comm.rank() == 0) {
      auto fut = comm.isend(std::span<const double>(v), 1, 7);
      fut.wait();  // completes only after the *final* consumption
    } else {
      {
        pc::PendingRecv req = comm.irecv(0, 7);
        while (!req.ready()) std::this_thread::sleep_for(1ms);
        // Abandon the captured rendezvous envelope: the requeue must keep
        // the sender's buffer alive (releasing here would let rank 0
        // reuse memory the next receive still reads).
      }
      EXPECT_EQ(comm.recv_vector<double>(0, 7), v);
    }
  });
}

// ---------------------------------------------------------------------------
// progress()-driven non-blocking operations
// ---------------------------------------------------------------------------

TEST(Progress, CallbackRecvRunsInsideProgress) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(99, 1, 7);
    } else {
      int seen = 0;
      comm.irecv(0, 7, [&](pc::Envelope env) {
        seen = pc::PendingRecv::decode<int>(env).at(0);
      });
      EXPECT_EQ(comm.pending_operations(), 1u);
      while (comm.pending_operations() != 0) {
        comm.progress();
        std::this_thread::sleep_for(1ms);
      }
      EXPECT_EQ(seen, 99);
    }
  });
}

TEST(Progress, IBarrierCompletesOnEveryRank) {
  for (int p : {1, 2, 3, 4, 5, 8}) {
    pc::run(p, [](pc::Communicator& comm) {
      auto fut = comm.ibarrier();
      fut.wait();
      EXPECT_TRUE(fut.ready());
    });
  }
}

TEST(Progress, IBarrierOverlapsComputeBeforeWait) {
  pc::run(4, [](pc::Communicator& comm) {
    auto fut = comm.ibarrier();
    // "Compute" between post and wait; progress keeps the barrier moving.
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      acc += static_cast<double>(i);
      if (i % 100 == 0) comm.progress();
    }
    EXPECT_EQ(acc, 499500.0);
    fut.wait();
    EXPECT_TRUE(fut.ready());
  });
}

TEST(Progress, IAllreduceMatchesSerialReference) {
  for (int p : {1, 2, 3, 4, 5, 8}) {
    pc::run(p, [p](pc::Communicator& comm) {
      std::vector<std::int64_t> in(16), out(16);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<std::int64_t>(i) * (comm.rank() + 1);
      }
      auto fut = comm.iallreduce(std::span<const std::int64_t>(in),
                                 std::span<std::int64_t>(out),
                                 std::plus<std::int64_t>{});
      fut.wait();
      // sum over ranks r of i*(r+1) = i * p(p+1)/2
      const std::int64_t scale = static_cast<std::int64_t>(p) * (p + 1) / 2;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<std::int64_t>(i) * scale);
      }
    });
  }
}

// iallreduce runs allreduce's schedule, non-power-of-two fold included, so
// floating-point sums come out bit for bit the same. (The two used to fold
// extra ranks differently: at p = 3 these values summed to 0 blocking and
// 1 non-blocking.)
TEST(Progress, IAllreduceMatchesBlockingBits) {
  const double vals[] = {1e16, 1.0, -1e16, 3.0, -7.0, 1e-3};
  for (int p : {3, 5, 6, 7}) {
    pc::run(p, [&](pc::Communicator& comm) {
      const double mine = vals[comm.rank() % 6];
      const double blocking = comm.allreduce_value(mine, std::plus<double>{});
      double nb = 0.0;
      auto fut = comm.iallreduce(std::span<const double>(&mine, 1),
                                 std::span<double>(&nb, 1),
                                 std::plus<double>{});
      fut.wait();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(nb),
                std::bit_cast<std::uint64_t>(blocking))
          << "p=" << p << ": iallreduce " << nb << " vs allreduce "
          << blocking;
    });
  }
}

TEST(Progress, BackToBackNonBlockingCollectivesSequence) {
  pc::run(3, [](pc::Communicator& comm) {
    std::vector<double> a{1.0 * (comm.rank() + 1)}, asum(1);
    std::vector<double> b{10.0 * (comm.rank() + 1)}, bsum(1);
    auto f1 = comm.iallreduce(std::span<const double>(a),
                              std::span<double>(asum), std::plus<double>{});
    auto f2 = comm.iallreduce(std::span<const double>(b),
                              std::span<double>(bsum), std::plus<double>{});
    f2.wait();
    f1.wait();
    EXPECT_EQ(asum[0], 6.0);
    EXPECT_EQ(bsum[0], 60.0);
  });
}

TEST(Progress, PollOwnDeathSurfacesRankKilledError) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = 9;
  rule.victim = 0;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 9);  // triggers own death
      EXPECT_THROW(
          {
            for (;;) {
              comm.progress();
              std::this_thread::sleep_for(1ms);
            }
          },
          pyhpc::RankKilledError);
    }
    // Rank 1 just returns; the dead rank's messages were swallowed.
  });
}
