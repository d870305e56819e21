// Tests for the message-passing substrate: p2p matching semantics,
// non-blocking receives, every collective against a serial reference, and
// failure injection (truncation, bad ranks, aborts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "comm/runner.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace pc = pyhpc::comm;
using pyhpc::CommError;

namespace {

// Rank counts exercised by the parameterized suites. The box is
// single-core, so these run oversubscribed; correctness must not depend on
// scheduling.
const std::vector<int> kRankCounts{1, 2, 3, 4, 5, 8};

}  // namespace

TEST(CommRunner, SingleRankRuns) {
  int visits = 0;
  pc::run(1, [&](pc::Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(CommRunner, AllRanksRun) {
  std::atomic<int> visits{0};
  pc::run(7, [&](pc::Communicator& comm) {
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 7);
    ++visits;
  });
  EXPECT_EQ(visits.load(), 7);
}

TEST(CommRunner, ExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(
      pc::run(3,
              [](pc::Communicator& comm) {
                if (comm.rank() == 1) {
                  throw pyhpc::InvalidArgument("rank 1 fails");
                }
                // Other ranks block on a message that never comes; the
                // abort must wake them.
                std::vector<std::byte> buf;
                comm.recv_bytes(buf, pc::kAnySource, 42);
              }),
      pyhpc::Error);
}

TEST(CommRunner, ZeroRanksRejected) {
  EXPECT_THROW(pc::run(0, [](pc::Communicator&) {}), pyhpc::InvalidArgument);
}

TEST(CommP2P, SendRecvValueRoundTrip) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(12345.5, 1, 7);
    } else {
      EXPECT_EQ(comm.recv_value<double>(0, 7), 12345.5);
    }
  });
}

TEST(CommP2P, TagMatchingSelectsCorrectMessage) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(10, 1, /*tag=*/100);
      comm.send_value<int>(20, 1, /*tag=*/200);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 200), 20);
      EXPECT_EQ(comm.recv_value<int>(0, 100), 10);
    }
  });
}

TEST(CommP2P, NonOvertakingPerSourceAndTag) {
  pc::run(2, [](pc::Communicator& comm) {
    const int n = 64;
    if (comm.rank() == 0) {
      for (int i = 0; i < n; ++i) comm.send_value(i, 1, 5);
    } else {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      }
    }
  });
}

TEST(CommP2P, AnySourceReceivesFromAll) {
  pc::run(4, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> got;
      for (int i = 0; i < 3; ++i) {
        got.push_back(comm.recv_value<int>(pc::kAnySource, 3));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    } else {
      comm.send_value(comm.rank(), 0, 3);
    }
  });
}

TEST(CommP2P, AnyTagMatchesFirstQueued) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(77, 1, 9);
    } else {
      pc::Status st{};
      std::vector<int> v = comm.recv_vector<int>(pc::kAnySource, pc::kAnyTag, &st);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.source, 0);
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0], 77);
    }
  });
}

TEST(CommP2P, VectorPayloadRoundTrip) {
  pc::run(2, [](pc::Communicator& comm) {
    std::vector<std::uint64_t> data(1000);
    std::iota(data.begin(), data.end(), 17);
    if (comm.rank() == 0) {
      comm.send(std::span<const std::uint64_t>(data), 1, 0);
    } else {
      std::vector<std::uint64_t> buf(1000);
      pc::Status st = comm.recv(std::span<std::uint64_t>(buf), 0, 0);
      EXPECT_EQ(st.bytes, 8000u);
      EXPECT_EQ(buf, data);
    }
  });
}

TEST(CommP2P, TruncationIsAnError) {
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         if (comm.rank() == 0) {
                           std::vector<int> four(4, 1);
                           comm.send(std::span<const int>(four), 1, 0);
                         } else {
                           std::vector<int> two(2);
                           comm.recv(std::span<int>(two), 0, 0);
                         }
                       }),
               CommError);
}

TEST(CommP2P, SendToBadRankThrows) {
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         comm.send_value(1, comm.size() + 3, 0);
                       }),
               CommError);
}

TEST(CommP2P, TagOutsideUserRangeThrows) {
  EXPECT_THROW(pc::run(1,
                       [](pc::Communicator& comm) {
                         comm.send_value(1, 0, pc::kMaxUserTag + 5);
                       }),
               CommError);
}

TEST(CommP2P, StringRoundTrip) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_string("hello distributed world", 1, 1);
    } else {
      EXPECT_EQ(comm.recv_string(0, 1), "hello distributed world");
    }
  });
}

TEST(CommP2P, ProbeReportsSizeWithoutConsuming) {
  pc::run(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> d(10, 3.5);
      comm.send(std::span<const double>(d), 1, 4);
    } else {
      pc::Status st = comm.probe(0, 4);
      EXPECT_EQ(st.bytes, 80u);
      EXPECT_EQ(st.source, 0);
      std::vector<double> buf(10);
      comm.recv(std::span<double>(buf), 0, 4);
      EXPECT_EQ(buf[7], 3.5);
    }
  });
}

TEST(CommP2P, IprobeEmptyReturnsNullopt) {
  pc::run(1, [](pc::Communicator& comm) {
    EXPECT_FALSE(comm.iprobe().has_value());
  });
}

TEST(CommStats, CountersTrackTraffic) {
  pc::CommStats total = pc::run_with_stats(2, [](pc::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> d(100, 1.0);
      comm.send(std::span<const double>(d), 1, 0);
    } else {
      std::vector<double> buf(100);
      comm.recv(std::span<double>(buf), 0, 0);
    }
  });
  EXPECT_EQ(total.p2p_messages_sent, 1u);
  EXPECT_EQ(total.p2p_bytes_sent, 800u);
  EXPECT_EQ(total.p2p_messages_received, 1u);
  EXPECT_EQ(total.p2p_bytes_received, 800u);
}

// ---------------------------------------------------------------------------
// Collectives, parameterized over rank counts, validated against serial
// references on deterministic pseudo-random payloads.
// ---------------------------------------------------------------------------

class CollectivesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, CollectivesTest,
                         ::testing::ValuesIn(kRankCounts));

TEST_P(CollectivesTest, BarrierCompletes) {
  const int p = GetParam();
  pc::run(p, [](pc::Communicator& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectivesTest, BroadcastFromEveryRoot) {
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(37, comm.rank() == root ? root + 1000 : -1);
      comm.broadcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root + 1000);
    }
  });
}

TEST_P(CollectivesTest, BroadcastStringVariableLength) {
  const int p = GetParam();
  pc::run(p, [](pc::Communicator& comm) {
    const std::string payload = "def hypot(x, y): return sqrt(x*x + y*y)";
    std::string got =
        comm.broadcast_string(comm.rank() == 0 ? payload : "", 0);
    EXPECT_EQ(got, payload);
  });
}

TEST_P(CollectivesTest, ReduceSumMatchesSerial) {
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    // Payload: rank-dependent deterministic values.
    std::vector<std::int64_t> mine(13);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = (comm.rank() + 1) * static_cast<std::int64_t>(i + 1);
    }
    std::vector<std::int64_t> out(13);
    comm.reduce(std::span<const std::int64_t>(mine),
                std::span<std::int64_t>(out), std::plus<std::int64_t>{}, 0);
    if (comm.rank() == 0) {
      std::int64_t ranksum = 0;
      for (int r = 0; r < p; ++r) ranksum += r + 1;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], ranksum * static_cast<std::int64_t>(i + 1));
      }
    }
  });
}

TEST_P(CollectivesTest, ReduceToNonZeroRoot) {
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    const int root = p - 1;
    std::int64_t got = comm.reduce_value<std::int64_t>(
        comm.rank(), std::plus<std::int64_t>{}, root);
    if (comm.rank() == root) {
      EXPECT_EQ(got, static_cast<std::int64_t>(p) * (p - 1) / 2);
    }
  });
}

TEST_P(CollectivesTest, AllreduceMinMax) {
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    const double mn = comm.allreduce_value<double>(
        100.0 + comm.rank(), [](double a, double b) { return std::min(a, b); });
    EXPECT_EQ(mn, 100.0);
    const double mx = comm.allreduce_value<double>(
        100.0 + comm.rank(), [](double a, double b) { return std::max(a, b); });
    EXPECT_EQ(mx, 100.0 + (p - 1));
  });
}

TEST_P(CollectivesTest, ScanInclusiveAndExclusive) {
  const int p = GetParam();
  (void)p;
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const int r = comm.rank();
    const std::int64_t inc =
        comm.scan_inclusive<std::int64_t>(r + 1, std::plus<std::int64_t>{});
    EXPECT_EQ(inc, static_cast<std::int64_t>(r + 1) * (r + 2) / 2);
    const std::int64_t exc = comm.scan_exclusive<std::int64_t>(
        r + 1, std::plus<std::int64_t>{}, 0);
    EXPECT_EQ(exc, static_cast<std::int64_t>(r) * (r + 1) / 2);
  });
}

TEST_P(CollectivesTest, GatherOrdersByRank) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    std::vector<int> mine{comm.rank() * 2, comm.rank() * 2 + 1};
    std::vector<int> all;
    comm.gather(std::span<const int>(mine), all, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * comm.size()));
      for (int i = 0; i < 2 * comm.size(); ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesTest, GathervVariableCounts) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
    auto chunks = comm.gatherv(std::span<const int>(mine), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        EXPECT_EQ(chunks[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r + 1));
        for (int v : chunks[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
      }
    }
  });
}

TEST_P(CollectivesTest, AllgatherEveryRankSeesAll) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto all = comm.allgather_value(comm.rank() * 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    }
  });
}

TEST_P(CollectivesTest, AllgathervVariableCounts) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    std::vector<double> mine(static_cast<std::size_t>(comm.rank()), 0.5 * comm.rank());
    auto chunks = comm.allgatherv(std::span<const double>(mine));
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(chunks[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r));
      for (double v : chunks[static_cast<std::size_t>(r)]) {
        EXPECT_EQ(v, 0.5 * r);
      }
    }
  });
}

TEST_P(CollectivesTest, ScatterDistributesRootBuffer) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const int p = comm.size();
    std::vector<int> all;
    if (comm.rank() == 0) {
      all.resize(static_cast<std::size_t>(3 * p));
      std::iota(all.begin(), all.end(), 0);
    }
    std::vector<int> mine(3);
    comm.scatter(std::span<const int>(all), std::span<int>(mine), 0);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(mine[static_cast<std::size_t>(i)], 3 * comm.rank() + i);
  });
}

TEST_P(CollectivesTest, ScattervVariableParts) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const int p = comm.size();
    std::vector<std::vector<int>> parts;
    if (comm.rank() == 0) {
      parts.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        parts[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(r + 2), r * 7);
      }
    }
    auto mine = comm.scatterv(parts, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank() + 2));
    for (int v : mine) EXPECT_EQ(v, comm.rank() * 7);
  });
}

TEST_P(CollectivesTest, AlltoallTransposesRankData) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const int p = comm.size();
    // send[r] = 100*me + r ; after alltoall recv[r] = 100*r + me.
    std::vector<int> send(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) send[static_cast<std::size_t>(r)] = 100 * comm.rank() + r;
    std::vector<int> recv(static_cast<std::size_t>(p), -1);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(recv[static_cast<std::size_t>(r)], 100 * r + comm.rank());
    }
  });
}

TEST_P(CollectivesTest, AlltoallvShufflesVariableParts) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const int p = comm.size();
    // Rank s sends (s+d) copies of value s*1000+d to rank d.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(comm.rank() + d), comm.rank() * 1000 + d);
    }
    auto recv = comm.alltoallv(std::move(send));
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& part = recv[static_cast<std::size_t>(s)];
      EXPECT_EQ(part.size(), static_cast<std::size_t>(s + comm.rank()));
      for (int v : part) EXPECT_EQ(v, s * 1000 + comm.rank());
    }
  });
}

TEST_P(CollectivesTest, ConsecutiveCollectivesDoNotInterfere) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const int sum = comm.allreduce_value<int>(1, std::plus<int>{});
      EXPECT_EQ(sum, comm.size());
      const int bc = comm.broadcast_value(comm.rank() == 0 ? iter : -1, 0);
      EXPECT_EQ(bc, iter);
    }
  });
}

TEST_P(CollectivesTest, RandomPayloadAllreduceMatchesSerialReference) {
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    const std::size_t n = 257;
    auto mine = pyhpc::util::uniform_doubles(
        99, static_cast<std::uint64_t>(comm.rank()), n);
    std::vector<double> got(n);
    comm.allreduce(std::span<const double>(mine), std::span<double>(got),
                   std::plus<double>{});
    // Serial reference: sum the same deterministic streams. Summation order
    // differs between tree reduction and the serial loop, so allow
    // floating-point slack.
    std::vector<double> want(n, 0.0);
    for (int r = 0; r < p; ++r) {
      auto other = pyhpc::util::uniform_doubles(99, static_cast<std::uint64_t>(r), n);
      for (std::size_t i = 0; i < n; ++i) want[i] += other[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12 * (1.0 + std::abs(want[i])));
    }
  });
}

// ---------------------------------------------------------------------------
// split()
// ---------------------------------------------------------------------------

TEST(CommSplit, EvenOddGroups) {
  pc::run(6, [](pc::Communicator& comm) {
    pc::Communicator sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives work inside the child independent of the parent.
    const int sum = sub.allreduce_value<int>(comm.rank(), std::plus<int>{});
    if (comm.rank() % 2 == 0) {
      EXPECT_EQ(sum, 0 + 2 + 4);
    } else {
      EXPECT_EQ(sum, 1 + 3 + 5);
    }
    // Parent still usable afterwards.
    EXPECT_EQ(comm.allreduce_value<int>(1, std::plus<int>{}), 6);
  });
}

TEST(CommSplit, KeyControlsChildRankOrder) {
  pc::run(4, [](pc::Communicator& comm) {
    // Reverse the ordering via descending keys.
    pc::Communicator sub = comm.split(0, comm.size() - comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(CommSplit, DuplicateKeepsRankAndSize) {
  pc::run(5, [](pc::Communicator& comm) {
    pc::Communicator dup = comm.duplicate();
    EXPECT_EQ(dup.rank(), comm.rank());
    EXPECT_EQ(dup.size(), comm.size());
    EXPECT_EQ(dup.allreduce_value<int>(2, std::plus<int>{}), 10);
  });
}

TEST(CommSplit, SingletonGroups) {
  pc::run(3, [](pc::Communicator& comm) {
    pc::Communicator solo = comm.split(comm.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_EQ(solo.allreduce_value<int>(5, std::plus<int>{}), 5);
  });
}
