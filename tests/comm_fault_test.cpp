// Fault-injection and failure-containment tests: deterministic drop /
// delay / duplicate / corrupt / kill-rank injection, receive deadlines,
// the deadlock watchdog, and the hardened ODIN driver protocol
// (seq/ack/retry, WorkerLostError) driven through service sessions.
// Registered under the `faults` CTest label: `ctest -L faults`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "comm/config.hpp"
#include "comm/fault.hpp"
#include "comm/message.hpp"
#include "comm/runner.hpp"
#include "obs/metrics.hpp"
#include "odin/service.hpp"
#include "util/error.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;

using namespace std::chrono_literals;

namespace {

pc::CommConfig config_with(std::shared_ptr<pc::FaultInjector> injector) {
  pc::CommConfig cfg;
  cfg.injector = std::move(injector);
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Receive deadlines
// ---------------------------------------------------------------------------

TEST(RecvTimeout, ExplicitDeadlineRaisesAndCounts) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() != 0) return;  // rank 1 never sends
    EXPECT_THROW((void)comm.recv_value_within<int>(60ms, 1, 7),
                 pyhpc::RecvTimeoutError);
    EXPECT_EQ(comm.stats().timeouts, 1u);
  });
}

TEST(RecvTimeout, ConfigDefaultDeadlineAppliesToPlainRecv) {
  pc::CommConfig cfg;
  cfg.recv_timeout = 60ms;
  EXPECT_THROW(pc::run(2, cfg,
                       [](pc::Communicator& comm) {
                         if (comm.rank() != 0) return;
                         (void)comm.recv_value<int>(1, 7);
                       }),
               pyhpc::RecvTimeoutError);
}

TEST(RecvTimeout, ProbeHonoursDeadline) {
  pc::CommConfig cfg;
  cfg.recv_timeout = 60ms;
  EXPECT_THROW(pc::run(2, cfg,
                       [](pc::Communicator& comm) {
                         if (comm.rank() != 0) return;
                         (void)comm.probe(1, 7);
                       }),
               pyhpc::RecvTimeoutError);
}

// ---------------------------------------------------------------------------
// Fault injection: drop / duplicate / corrupt / delay
// ---------------------------------------------------------------------------

TEST(FaultInjection, DropSwallowsTheMessage) {
  auto inj = std::make_shared<pc::FaultInjector>(/*seed=*/1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDrop;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 5;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(42, 0, 5);
      comm.send_value<int>(43, 0, 6);  // different tag: unaffected
      return;
    }
    EXPECT_EQ(comm.recv_value<int>(1, 6), 43);
    EXPECT_THROW((void)comm.recv_value_within<int>(80ms, 1, 5),
                 pyhpc::RecvTimeoutError);
  });
  EXPECT_EQ(inj->counts().drops, 1u);
}

TEST(FaultInjection, DuplicateDeliversTwice) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDuplicate;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 6;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(7, 0, 6);
      return;
    }
    EXPECT_EQ(comm.recv_value<int>(1, 6), 7);
    EXPECT_EQ(comm.recv_value<int>(1, 6), 7);  // the injected copy
  });
  EXPECT_EQ(inj->counts().duplicates, 1u);
}

TEST(FaultInjection, CorruptionIsDetectedNotDecoded) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kCorrupt;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 5;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value<double>(3.25, 0, 5);
      return;
    }
    EXPECT_THROW((void)comm.recv_value<double>(1, 5),
                 pyhpc::CommIntegrityError);
    EXPECT_EQ(comm.stats().corruption_detected, 1u);
  });
  EXPECT_EQ(inj->counts().corruptions, 1u);
}

// The envelope checksum hashes 32-byte blocks as four 64-bit lanes and the
// tail byte-wise; every step is a bijection of its state, so changing any
// one byte (the injector's corruption), or any one aligned word of the
// blocks, must change it at every payload length.
TEST(FaultInjection, ChecksumChangesWithEveryByteAndBlockWord) {
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::byte> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::byte>((i * 37 + n) & 0xff);
    }
    auto checksum_of = [](const std::vector<std::byte>& b) {
      pc::Envelope env;
      env.source = 1;
      env.tag = 5;
      env.payload = pc::Buffer::copy_of(std::span<const std::byte>(b));
      return pc::envelope_checksum(env);
    };
    const std::uint64_t clean = checksum_of(bytes);
    if (n < 32) {
      // No full block: plain byte-wise FNV-1a over source, tag, size and
      // payload, as the checksum has always been.
      std::uint64_t fnv = 1469598103934665603ULL;
      auto step = [&fnv](std::uint64_t byte) {
        fnv = (fnv ^ byte) * 1099511628211ULL;
      };
      for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{5},
                              static_cast<std::uint64_t>(n)}) {
        for (int i = 0; i < 8; ++i) step((v >> (8 * i)) & 0xff);
      }
      for (std::byte b : bytes) step(std::to_integer<std::uint64_t>(b));
      EXPECT_EQ(clean, fnv) << "n = " << n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::byte flip : {std::byte{0xFF}, std::byte{0x10}}) {
        auto tampered = bytes;
        tampered[i] ^= flip;
        EXPECT_NE(checksum_of(tampered), clean)
            << "n = " << n << ", byte " << i << " ^ "
            << std::to_integer<int>(flip);
      }
    }
    for (std::size_t w = 0; w + 8 <= n - n % 32; w += 8) {
      auto tampered = bytes;
      for (std::size_t i = w; i < w + 8; ++i) tampered[i] = ~tampered[i];
      EXPECT_NE(checksum_of(tampered), clean) << "n = " << n << ", word " << w;
    }
  }
}

TEST(FaultInjection, DelayStallsButDelivers) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDelay;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 5;
  rule.delay = 50ms;
  inj->add_rule(rule);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(9, 0, 5);
      return;
    }
    EXPECT_EQ(comm.recv_value<int>(1, 5), 9);
  });
  EXPECT_EQ(inj->counts().delays, 1u);
}

TEST(FaultInjection, ProbabilityAndSkipAreDeterministic) {
  // Same seed, same traffic -> bit-identical fault pattern.
  pc::FaultCounts first;
  for (int trial = 0; trial < 2; ++trial) {
    auto inj = std::make_shared<pc::FaultInjector>(/*seed=*/99);
    pc::FaultRule rule;
    rule.kind = pc::FaultKind::kDrop;
    rule.source = 1;
    rule.dest = 0;
    rule.tag = 3;
    rule.probability = 0.5;
    rule.skip_first = 4;
    inj->add_rule(rule);
    pc::run(2, config_with(inj), [](pc::Communicator& comm) {
      if (comm.rank() == 1) {
        for (int i = 0; i < 40; ++i) comm.send_value<int>(i, 0, 3);
        comm.send_value<int>(-1, 0, 4);  // end marker, unaffected tag
        return;
      }
      int received = 0;
      for (;;) {
        auto st = comm.probe(1, pc::kAnyTag);
        if (st.tag == 4) break;
        (void)comm.recv_value<int>(1, 3);
        ++received;
      }
      EXPECT_GE(received, 4);  // skip_first messages always arrive
      EXPECT_LT(received, 40);  // some were dropped
    });
    if (trial == 0) {
      first = inj->counts();
      EXPECT_GT(first.drops, 0u);
    } else {
      EXPECT_EQ(inj->counts().drops, first.drops);
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-rank containment
// ---------------------------------------------------------------------------

TEST(KillRank, DeathIsContainedAndObservable) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 1;
  rule.dest = 0;
  rule.tag = 9;
  rule.skip_first = 3;  // kill rank 1 on its 4th message
  rule.max_applications = 1;
  rule.victim = 1;
  inj->add_rule(rule);
  // The run completes without throwing: rank 1's death is contained.
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      // Dies on the 4th send: either RankKilledError surfaces on a later
      // send or the loop just ends; the runner swallows the death.
      for (int i = 0; i < 10; ++i) {
        comm.send_value<int>(i, 0, 9);
        std::this_thread::sleep_for(1ms);
      }
      return;
    }
    for (int i = 0; i < 3; ++i) EXPECT_EQ(comm.recv_value<int>(1, 9), i);
    // The 4th message went down with the rank; nothing more can arrive
    // from it, and the receive fails fast on the corpse instead of
    // waiting out its deadline (same semantics probe/iprobe always had).
    EXPECT_THROW((void)comm.recv_value_within<int>(150ms, 1, 9),
                 pyhpc::PeerKilledError);
    EXPECT_TRUE(comm.rank_dead(1));
  });
  EXPECT_EQ(inj->counts().kills, 1u);
}

// ---------------------------------------------------------------------------
// Deadlock watchdog
// ---------------------------------------------------------------------------

TEST(DeadlockWatchdog, CrossRecvCycleAbortsWithReport) {
  pc::CommConfig cfg;
  cfg.watchdog_poll = 40ms;
  try {
    pc::run(3, cfg, [](pc::Communicator& comm) {
      // Classic cycle: everyone receives from the next rank, nobody sends.
      (void)comm.recv_value<int>((comm.rank() + 1) % comm.size(), 11);
    });
    FAIL() << "expected DeadlockError";
  } catch (const pyhpc::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 waits on (source 1, tag 11)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 2 waits on (source 0, tag 11)"),
              std::string::npos)
        << what;
  }
}

TEST(DeadlockWatchdog, FinishedRanksAppearInReport) {
  pc::CommConfig cfg;
  cfg.watchdog_poll = 40ms;
  try {
    pc::run(2, cfg, [](pc::Communicator& comm) {
      if (comm.rank() == 1) return;  // exits without ever sending
      (void)comm.recv_value<int>(1, 3);
    });
    FAIL() << "expected DeadlockError";
  } catch (const pyhpc::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0 waits on (source 1, tag 3)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: finished"), std::string::npos) << what;
  }
}

TEST(DeadlockWatchdog, DoesNotFireOnHealthyTraffic) {
  pc::CommConfig cfg;
  cfg.watchdog_poll = 20ms;
  // Slow ping-pong: ranks block alternately well past several watchdog
  // polls, but a deadline-free deadlock never exists.
  pc::run(2, cfg, [](pc::Communicator& comm) {
    for (int i = 0; i < 4; ++i) {
      if (comm.rank() == 0) {
        comm.send_value<int>(i, 1, 2);
        std::this_thread::sleep_for(30ms);
        EXPECT_EQ(comm.recv_value<int>(1, 2), i);
      } else {
        EXPECT_EQ(comm.recv_value<int>(0, 2), i);
        std::this_thread::sleep_for(30ms);
        comm.send_value<int>(i, 0, 2);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Mailbox byte accounting
// ---------------------------------------------------------------------------

TEST(MailboxAccounting, HighWaterMarkReachesStats) {
  const auto stats = pc::run_with_stats(2, [](pc::Communicator& comm) {
    if (comm.rank() == 1) {
      std::vector<double> chunk(32, 1.0);  // 256 B per message
      for (int i = 0; i < 5; ++i) {
        comm.send(std::span<const double>(chunk), 0, 4);
      }
      return;
    }
    // Wait until all five messages are buffered, observing queued_bytes().
    while (comm.queued_bytes() < 5 * 32 * sizeof(double)) {
      std::this_thread::sleep_for(1ms);
    }
    for (int i = 0; i < 5; ++i) (void)comm.recv_vector<double>(1, 4);
    EXPECT_EQ(comm.queued_bytes(), 0u);
  });
  EXPECT_GE(stats.mailbox_highwater_bytes, 5u * 32u * sizeof(double));
}

// ---------------------------------------------------------------------------
// Hardened ODIN driver protocol, driven through service sessions
// ---------------------------------------------------------------------------

namespace {

// `batch_messages = 1` ships every op as its own payload, so the seeded
// schedules below count payloads exactly as a per-op driver would.
od::ServiceOptions fast_service_options() {
  od::ServiceOptions opts;
  opts.driver.ack_timeout = 60ms;
  opts.driver.max_retries = 12;
  opts.driver.reply_timeout = 1000ms;
  opts.batch_messages = 1;
  return opts;
}

}  // namespace

TEST(DriverFaults, HundredOpsCompleteThroughFivePercentDrops) {
  auto inj = std::make_shared<pc::FaultInjector>(/*seed=*/2026);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDrop;
  rule.source = 0;  // driver -> worker control payloads only
  rule.tag = od::kControlTag;
  rule.probability = 0.05;
  inj->add_rule(rule);
  const auto stats =
      pc::run_with_stats(4, config_with(inj), [](pc::Communicator& comm) {
        od::ServiceContext svc(comm, fast_service_options());
        if (!svc.is_driver()) {
          svc.worker_loop();
          return;
        }
        od::Session s = svc.open_session();
        // 100 ops: one create + 99 chained axpys (v <- v + ones).
        const std::int64_t n = 300;
        const int ones = s.create_full(n, 1.0);
        int cur = ones;
        for (int i = 0; i < 99; ++i) cur = s.axpy(1.0, cur, ones);
        // Every element is exactly 100.0 iff no op was lost.
        EXPECT_NEAR(s.reduce_sum(cur), 100.0 * static_cast<double>(n),
                    1e-9);
        svc.shutdown();
      });
  EXPECT_GT(inj->counts().drops, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.drops_detected, 0u);
  EXPECT_EQ(stats.retries, stats.drops_detected);
}

TEST(DriverFaults, CorruptedControlPayloadsAreDiscardedAndRetried) {
  auto inj = std::make_shared<pc::FaultInjector>(7);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kCorrupt;
  rule.source = 0;
  rule.tag = od::kControlTag;
  rule.probability = 0.1;
  inj->add_rule(rule);
  const auto stats =
      pc::run_with_stats(3, config_with(inj), [](pc::Communicator& comm) {
        od::ServiceContext svc(comm, fast_service_options());
        if (!svc.is_driver()) {
          svc.worker_loop();
          return;
        }
        od::Session s = svc.open_session();
        const std::int64_t n = 100;
        const int x = s.create_full(n, 2.0);
        int cur = x;
        for (int i = 0; i < 40; ++i) cur = s.unary("sqrt", cur);
        // 2^(1/2^40) ~= 1.0; the exact value matters less than that every
        // op executed exactly once on every worker.
        EXPECT_NEAR(s.reduce_sum(cur), static_cast<double>(n), 1e-6);
        svc.shutdown();
      });
  EXPECT_GT(inj->counts().corruptions, 0u);
  EXPECT_GT(stats.corruption_detected, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(DriverFaults, DuplicatedPayloadsExecuteOnce) {
  auto inj = std::make_shared<pc::FaultInjector>(5);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kDuplicate;
  rule.source = 0;
  rule.tag = od::kControlTag;
  rule.probability = 0.2;
  inj->add_rule(rule);
  pc::run(3, config_with(inj), [](pc::Communicator& comm) {
    od::ServiceContext svc(comm, fast_service_options());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    const std::int64_t n = 120;
    const int ones = s.create_full(n, 1.0);
    int cur = ones;
    // axpy is not idempotent: if a duplicate executed twice the sum would
    // drift from the exact expected value.
    for (int i = 0; i < 30; ++i) cur = s.axpy(1.0, cur, ones);
    EXPECT_NEAR(s.reduce_sum(cur), 31.0 * static_cast<double>(n), 1e-9);
    svc.shutdown();
  });
  EXPECT_GT(inj->counts().duplicates, 0u);
}

TEST(DriverFaults, WorkerDeathMidBatchRaisesWorkerLost) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 0;
  rule.dest = 2;
  rule.tag = od::kControlTag;
  rule.skip_first = 2;  // worker rank 2 dies on the third payload
  rule.max_applications = 1;
  inj->add_rule(rule);
  try {
    pc::run(4, config_with(inj), [](pc::Communicator& comm) {
      od::ServiceContext svc(comm, fast_service_options());
      if (!svc.is_driver()) {
        svc.worker_loop();
        return;
      }
      od::Session s = svc.open_session();
      const int a = s.create_full(90, 1.0);
      const int b = s.create_full(90, 2.0);
      int cur = a;
      for (int i = 0; i < 10; ++i) {
        cur = s.axpy(1.0, cur, b);
        (void)s.reduce_sum(cur);
      }
      FAIL() << "expected WorkerLostError";
    });
    FAIL() << "expected WorkerLostError to propagate out of run()";
  } catch (const pyhpc::WorkerLostError& e) {
    EXPECT_NE(std::string(e.what()).find("worker rank 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(inj->counts().kills, 1u);
}

TEST(DriverFaults, ShutdownReportsDeadWorkerButReachesLiveOnes) {
  auto inj = std::make_shared<pc::FaultInjector>(1);
  pc::FaultRule rule;
  rule.kind = pc::FaultKind::kKillRank;
  rule.source = 0;
  rule.dest = 1;
  rule.tag = od::kControlTag;
  rule.skip_first = 1;
  rule.max_applications = 1;
  inj->add_rule(rule);
  std::atomic<bool> rank2_shut_down{false};
  try {
    pc::run(3, config_with(inj), [&](pc::Communicator& comm) {
      od::ServiceContext svc(comm, fast_service_options());
      if (!svc.is_driver()) {
        svc.worker_loop();  // returns only on a delivered kShutdown
        if (comm.rank() == 2) rank2_shut_down = true;
        return;
      }
      od::Session s = svc.open_session();
      (void)s.create_full(50, 1.0);  // payload 1: delivered everywhere
      try {
        (void)s.create_full(50, 2.0);  // payload 2 kills rank 1
      } catch (const pyhpc::WorkerLostError&) {
        // Expected on the ack wait; shutdown must still work for rank 2.
      }
      try {
        svc.shutdown();
      } catch (const pyhpc::WorkerLostError&) {
        // The control plane is gone: `s` closes as a no-op, shipping
        // nothing to workers that have left their loops.
        EXPECT_EQ(svc.open_sessions(), 0u);
        throw;
      }
    });
    FAIL() << "expected WorkerLostError from shutdown";
  } catch (const pyhpc::WorkerLostError& e) {
    EXPECT_NE(std::string(e.what()).find("worker rank 1"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rank2_shut_down);
}

TEST(DriverFaults, CombinedDuplicateAndCorruptScheduleStaysExact) {
  // Duplicate and corrupt rules active at once: dedup (seq numbers) and
  // integrity retries must compose — every op still executes exactly once.
  auto inj = std::make_shared<pc::FaultInjector>(31);
  pc::FaultRule dup;
  dup.kind = pc::FaultKind::kDuplicate;
  dup.source = 0;
  dup.tag = od::kControlTag;
  dup.probability = 0.2;
  inj->add_rule(dup);
  pc::FaultRule corrupt;
  corrupt.kind = pc::FaultKind::kCorrupt;
  corrupt.source = 0;
  corrupt.tag = od::kControlTag;
  corrupt.probability = 0.1;
  inj->add_rule(corrupt);
  const auto stats =
      pc::run_with_stats(4, config_with(inj), [](pc::Communicator& comm) {
        od::ServiceContext svc(comm, fast_service_options());
        if (!svc.is_driver()) {
          svc.worker_loop();
          return;
        }
        od::Session s = svc.open_session();
        const std::int64_t n = 240;
        const int ones = s.create_full(n, 1.0);
        int cur = ones;
        // Non-idempotent chain: a double-executed duplicate or a silently
        // accepted corruption would shift the exact sum.
        for (int i = 0; i < 50; ++i) cur = s.axpy(1.0, cur, ones);
        EXPECT_NEAR(s.reduce_sum(cur), 51.0 * static_cast<double>(n), 1e-9);
        svc.shutdown();
      });
  EXPECT_GT(inj->counts().duplicates, 0u);
  EXPECT_GT(inj->counts().corruptions, 0u);
  EXPECT_GT(stats.corruption_detected, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(DriverFaults, WorkerDeathUnderCombinedScheduleStillRaisesWorkerLost) {
  // The WorkerLostError path must not be masked by concurrent duplicate
  // and corrupt noise: retries on garbage must still conclude "dead", and
  // dedup must not mistake the final retry burst for progress.
  auto inj = std::make_shared<pc::FaultInjector>(17);
  pc::FaultRule dup;
  dup.kind = pc::FaultKind::kDuplicate;
  dup.source = 0;
  dup.tag = od::kControlTag;
  dup.probability = 0.25;
  inj->add_rule(dup);
  pc::FaultRule corrupt;
  corrupt.kind = pc::FaultKind::kCorrupt;
  corrupt.source = 0;
  corrupt.tag = od::kControlTag;
  corrupt.probability = 0.15;
  inj->add_rule(corrupt);
  pc::FaultRule kill;
  kill.kind = pc::FaultKind::kKillRank;
  kill.source = 0;
  kill.dest = 2;
  kill.tag = od::kControlTag;
  kill.skip_first = 4;  // worker rank 2 dies on the fifth control payload
  kill.max_applications = 1;
  inj->add_rule(kill);
  try {
    pc::run(4, config_with(inj), [](pc::Communicator& comm) {
      od::ServiceContext svc(comm, fast_service_options());
      if (!svc.is_driver()) {
        svc.worker_loop();
        return;
      }
      od::Session s = svc.open_session();
      const int ones = s.create_full(80, 1.0);
      int cur = ones;
      for (int i = 0; i < 20; ++i) {
        cur = s.axpy(1.0, cur, ones);
        (void)s.reduce_sum(cur);
      }
      FAIL() << "expected WorkerLostError";
    });
    FAIL() << "expected WorkerLostError to propagate out of run()";
  } catch (const pyhpc::WorkerLostError& e) {
    EXPECT_NE(std::string(e.what()).find("worker rank 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(inj->counts().kills, 1u);
}

// ---------------------------------------------------------------------------
// Driver epochs: fresh contexts over a reused comm (PR 8 bugfix)
// ---------------------------------------------------------------------------

TEST(DriverFaults, FreshDriverEpochNotPoisonedByStaleDuplicates) {
  // An injected duplicate of the FIRST service's shutdown payload stays in
  // the worker's mailbox after its loop exits. Pre-fix, the SECOND
  // service's worker loop received that stale payload first, saw a
  // sequence number above its fresh last_seq_, and executed it — a stale
  // kShutdown that killed the new worker loop before the new driver's
  // payloads arrived (and for non-shutdown ops, silently bumped last_seq_
  // so the new driver's early payloads were re-acked WITHOUT executing).
  // Post-fix the payload carries epoch 0, the new service runs epoch 1,
  // and the worker discards it without touching its dedup state.
  auto inj = std::make_shared<pc::FaultInjector>(11);
  pc::FaultRule dup;
  dup.kind = pc::FaultKind::kDuplicate;
  dup.source = 0;
  dup.dest = 1;
  dup.tag = od::kControlTag;
  dup.skip_first = 1;       // payload 1 (create) passes clean...
  dup.max_applications = 1; // ...payload 2 (shutdown) is duplicated
  inj->add_rule(dup);
  pc::run(2, config_with(inj), [](pc::Communicator& comm) {
    od::ServiceOptions gen0 = fast_service_options();
    gen0.driver.epoch = 0;
    od::ServiceContext svc1(comm, gen0);
    if (!svc1.is_driver()) {
      svc1.worker_loop();
    } else {
      od::Session s = svc1.open_session();
      (void)s.create_full(40, 1.0);
      svc1.shutdown();  // invalidates `s`: no close payload follows
    }

    // Same comm, next driver generation. The stale duplicate of the
    // epoch-0 shutdown is still queued on the worker.
    od::ServiceOptions gen1 = fast_service_options();
    gen1.driver.epoch = 1;
    od::ServiceContext svc2(comm, gen1);
    if (!svc2.is_driver()) {
      svc2.worker_loop();
      return;
    }
    od::Session s = svc2.open_session();
    const int x = s.create_full(40, 2.0);
    const int y = s.axpy(3.0, x, x);  // 3*2 + 2 = 8 per element
    EXPECT_NEAR(s.reduce_sum(x), 80.0, 1e-9);
    EXPECT_NEAR(s.reduce_sum(y), 320.0, 1e-9);
    svc2.shutdown();
  });
  EXPECT_EQ(inj->counts().duplicates, 1u);
  EXPECT_GE(pyhpc::obs::MetricsRegistry::global().value(
                "driver.stale_epoch_payloads"),
            1.0);
}

TEST(DriverFaults, SequentialEpochsOverOneCommStayExact) {
  // Three driver generations over one comm, each with injected duplicates
  // on the control tag: per-epoch sequence namespaces keep every
  // generation's dedup independent.
  auto inj = std::make_shared<pc::FaultInjector>(23);
  pc::FaultRule dup;
  dup.kind = pc::FaultKind::kDuplicate;
  dup.source = 0;
  dup.tag = od::kControlTag;
  dup.probability = 0.3;
  inj->add_rule(dup);
  pc::run(3, config_with(inj), [](pc::Communicator& comm) {
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      od::ServiceOptions opts = fast_service_options();
      opts.driver.epoch = epoch;
      od::ServiceContext svc(comm, opts);
      if (!svc.is_driver()) {
        svc.worker_loop();
        continue;
      }
      od::Session s = svc.open_session();
      const int ones = s.create_full(90, 1.0);
      int cur = ones;
      for (int i = 0; i < 10; ++i) cur = s.axpy(1.0, cur, ones);
      EXPECT_NEAR(s.reduce_sum(cur), 11.0 * 90.0, 1e-9)
          << "epoch " << epoch;
      svc.shutdown();
    }
  });
}

// ---------------------------------------------------------------------------
// Empty-payload audit on the control framing (PR 8 bugfix)
// ---------------------------------------------------------------------------

TEST(DriverEmptyPayload, EmptyShipBatchIsANoOp) {
  // A zero-message ship must not consume a sequence number or put a
  // header-only payload on the wire (whose messages memcpy would touch
  // data() of an empty region — the UB class fixed for the p2p decode
  // paths in earlier PRs).
  pc::run(3, [](pc::Communicator& comm) {
    od::ServiceContext svc(comm, fast_service_options());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    svc.driver().ship_batch({});
    EXPECT_EQ(svc.driver().payloads_sent(), 0u);
    // And the protocol is undisturbed: the next real op is sequenced from
    // scratch and exact.
    od::Session s = svc.open_session();
    const int x = s.create_full(30, 5.0);
    EXPECT_NEAR(s.reduce_sum(x), 150.0, 1e-9);
    svc.shutdown();
  });
}

TEST(DriverEmptyPayload, EmptyUfuncNameIsContainedNotFatal) {
  // ControlMessage::name all-zero (empty string) reaches the worker's
  // ufunc lookup, which throws; the worker must contain that error (count
  // it, keep serving) instead of tearing down the loop for every session.
  const double before =
      pyhpc::obs::MetricsRegistry::global().value("driver.worker_op_errors");
  pc::run(3, [](pc::Communicator& comm) {
    od::ServiceContext svc(comm, fast_service_options());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    const int x = s.create_full(30, 4.0);
    (void)s.unary("", x);  // executes (and fails) on the workers
    EXPECT_NEAR(s.reduce_sum(x), 120.0, 1e-9);  // loop still alive
    svc.shutdown();
  });
  EXPECT_GE(pyhpc::obs::MetricsRegistry::global().value(
                "driver.worker_op_errors"),
            before + 2.0);  // both workers contained the bad op
}

TEST(DriverEmptyPayload, MaxLengthUfuncNameRoundTrips) {
  // name[8] holds at most 7 chars + NUL; get_name must bound its scan
  // even for the longest legal name.
  od::ControlMessage m;
  m.set_name("sigmoid");  // 7 chars, exactly the limit
  EXPECT_EQ(m.get_name(), "sigmoid");
  EXPECT_THROW(m.set_name("8chars!!"), pyhpc::InvalidArgument);
}
