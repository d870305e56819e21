// Parameterized correctness suite for the scalable collective schedules
// (ISSUE 3): every collective x rank counts {1,2,3,4,7,8} x empty/short/
// long payloads x non-zero roots, each forced algorithm cross-checked
// against a serial reference. Registered under the `coll` CTest label and
// exercised under -DPYHPC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "comm/runner.hpp"
#include "util/error.hpp"

namespace pc = pyhpc::comm;
using pc::CollectiveAlgo;
using pyhpc::CommError;

namespace {

// The `long` size clears the 4096-byte kAuto thresholds for double
// payloads (1024 * 8 = 8192 B), so threshold-driven selection takes the
// long-message branch; `short` stays below it.
const std::vector<int> kRankCounts{1, 2, 3, 4, 7, 8};
const std::vector<std::size_t> kCounts{0, 3, 1024};

double element(int rank, std::size_t i) {
  return static_cast<double>(rank * 100000) + static_cast<double>(i);
}

class CollAlgoTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  int ranks() const { return std::get<0>(GetParam()); }
  std::size_t count() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, CollAlgoTest,
    ::testing::Combine(::testing::ValuesIn(kRankCounts),
                       ::testing::ValuesIn(kCounts)),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace

TEST_P(CollAlgoTest, AllreduceAllAlgosMatchReference) {
  const int p = ranks();
  const std::size_t n = count();
  // Serial reference: elementwise sum over ranks.
  std::vector<double> expect(n, 0.0);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) expect[i] += element(r, i);
  }
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
        CollectiveAlgo::kRecursiveDoubling, CollectiveAlgo::kRabenseifner}) {
    pc::run(p, [&](pc::Communicator& comm) {
      std::vector<double> mine(n), got(n);
      for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
      comm.allreduce(std::span<const double>(mine), std::span<double>(got),
                     std::plus<double>{}, algo);
      EXPECT_EQ(got, expect) << "algo " << pc::collective_algo_name(algo);
    });
  }
}

TEST_P(CollAlgoTest, AllreduceValueMaxOp) {
  const int p = ranks();
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kLinear, CollectiveAlgo::kRecursiveDoubling,
        CollectiveAlgo::kRabenseifner}) {
    pc::run(p, [&](pc::Communicator& comm) {
      const int got = comm.allreduce_value<int>(
          (comm.rank() * 7) % p + 1,
          [](int a, int b) { return std::max(a, b); }, algo);
      int expect = 0;
      for (int r = 0; r < p; ++r) expect = std::max(expect, (r * 7) % p + 1);
      EXPECT_EQ(got, expect) << "algo " << pc::collective_algo_name(algo);
    });
  }
}

TEST_P(CollAlgoTest, GatherBinomialNonZeroRoots) {
  const int p = ranks();
  const std::size_t n = count();
  for (int root : {0, p - 1, p / 2}) {
    for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                                CollectiveAlgo::kBinomial}) {
      pc::run(p, [&](pc::Communicator& comm) {
        std::vector<double> mine(n);
        for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
        std::vector<double> all;
        comm.gather(std::span<const double>(mine), all, root, algo);
        if (comm.rank() == root) {
          ASSERT_EQ(all.size(), n * static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_EQ(all[static_cast<std::size_t>(r) * n + i],
                        element(r, i))
                  << "root " << root << " algo "
                  << pc::collective_algo_name(algo);
            }
          }
        } else {
          EXPECT_TRUE(all.empty());
        }
      });
    }
  }
}

TEST_P(CollAlgoTest, ScatterBinomialNonZeroRoots) {
  const int p = ranks();
  const std::size_t n = count();
  for (int root : {0, p - 1, p / 2}) {
    for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
                                CollectiveAlgo::kBinomial}) {
      pc::run(p, [&](pc::Communicator& comm) {
        std::vector<double> all;
        if (comm.rank() == root) {
          all.resize(n * static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
              all[static_cast<std::size_t>(r) * n + i] = element(r, i);
            }
          }
        }
        std::vector<double> mine(n);
        comm.scatter(std::span<const double>(all), std::span<double>(mine),
                     root, algo);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(mine[i], element(comm.rank(), i))
              << "root " << root << " algo " << pc::collective_algo_name(algo);
        }
      });
    }
  }
}

TEST_P(CollAlgoTest, AllgatherAllAlgosMatchReference) {
  const int p = ranks();
  const std::size_t n = count();
  for (CollectiveAlgo algo :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear, CollectiveAlgo::kBruck,
        CollectiveAlgo::kRing}) {
    pc::run(p, [&](pc::Communicator& comm) {
      std::vector<double> mine(n);
      for (std::size_t i = 0; i < n; ++i) mine[i] = element(comm.rank(), i);
      auto all = comm.allgather(std::span<const double>(mine), algo);
      ASSERT_EQ(all.size(), n * static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(all[static_cast<std::size_t>(r) * n + i], element(r, i))
              << "algo " << pc::collective_algo_name(algo);
        }
      }
    });
  }
}

TEST_P(CollAlgoTest, AllgathervVariableCountsPerRank) {
  const int p = ranks();
  const std::size_t base = count();
  for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
    pc::run(p, [&](pc::Communicator& comm) {
      // Rank r contributes base + r elements (0 on every rank when base
      // is 0 and r is even — mixed empty/non-empty chunks).
      const std::size_t cnt =
          base + static_cast<std::size_t>(comm.rank() % 2 == 0 ? 0 : comm.rank());
      std::vector<double> mine(cnt);
      for (std::size_t i = 0; i < cnt; ++i) mine[i] = element(comm.rank(), i);
      auto chunks = comm.allgatherv(std::span<const double>(mine), algo);
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        const std::size_t rc =
            base + static_cast<std::size_t>(r % 2 == 0 ? 0 : r);
        ASSERT_EQ(chunks[static_cast<std::size_t>(r)].size(), rc)
            << "algo " << pc::collective_algo_name(algo);
        for (std::size_t i = 0; i < rc; ++i) {
          EXPECT_EQ(chunks[static_cast<std::size_t>(r)][i], element(r, i));
        }
      }
    });
  }
}

// alltoall(v) keep one schedule, the linear one (a pairwise exchange
// measured no faster); these check it under kAuto and forced kLinear.
TEST_P(CollAlgoTest, AlltoallPairwiseMatchesReference) {
  const int p = ranks();
  const std::size_t n = count();
  for (CollectiveAlgo algo : {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
    pc::run(p, [&](pc::Communicator& comm) {
      const std::size_t total = n * static_cast<std::size_t>(p);
      std::vector<double> send(total), recv(total);
      for (int dst = 0; dst < p; ++dst) {
        for (std::size_t i = 0; i < n; ++i) {
          send[static_cast<std::size_t>(dst) * n + i] =
              element(comm.rank(), i) + dst;
        }
      }
      comm.alltoall(std::span<const double>(send), std::span<double>(recv),
                    algo);
      for (int src = 0; src < p; ++src) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(recv[static_cast<std::size_t>(src) * n + i],
                    element(src, i) + comm.rank())
              << "algo " << pc::collective_algo_name(algo);
        }
      }
    });
  }
}

TEST_P(CollAlgoTest, AlltoallvPairwiseVariableParts) {
  const int p = ranks();
  const std::size_t base = count();
  pc::run(p, [&](pc::Communicator& comm) {
    // Part (me -> dst) has base + (me + dst) % 3 elements.
    auto cnt = [base](int src, int dst) {
      return base + static_cast<std::size_t>((src + dst) % 3);
    };
    std::vector<std::vector<double>> send(static_cast<std::size_t>(p));
    for (int dst = 0; dst < p; ++dst) {
      for (std::size_t i = 0; i < cnt(comm.rank(), dst); ++i) {
        send[static_cast<std::size_t>(dst)].push_back(
            element(comm.rank(), i) + dst);
      }
    }
    auto recv = comm.alltoallv(std::move(send));
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      const auto& part = recv[static_cast<std::size_t>(src)];
      ASSERT_EQ(part.size(), cnt(src, comm.rank()));
      for (std::size_t i = 0; i < part.size(); ++i) {
        EXPECT_EQ(part[i], element(src, i) + comm.rank());
      }
    }
  });
}

// Long mixed sequence at an awkward rank count: exercises the collective
// sequence-slot wraparound and the widened per-phase tag space with every
// schedule interleaved back to back.
TEST(CollStress, MixedAlgosBackToBackAtSevenRanks) {
  pc::run(7, [](pc::Communicator& comm) {
    const int p = comm.size();
    for (int iter = 0; iter < 40; ++iter) {
      const auto algo = (iter % 2 == 0) ? CollectiveAlgo::kRecursiveDoubling
                                        : CollectiveAlgo::kRabenseifner;
      std::vector<double> mine(17), got(17);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = element(comm.rank(), i) + iter;
      }
      comm.allreduce(std::span<const double>(mine), std::span<double>(got),
                     std::plus<double>{}, algo);
      double expect0 = 0.0;
      for (int r = 0; r < p; ++r) expect0 += element(r, 0) + iter;
      EXPECT_DOUBLE_EQ(got[0], expect0);

      auto all = comm.allgather_value(comm.rank() * 3 + iter,
                                      iter % 2 == 0 ? CollectiveAlgo::kBruck
                                                    : CollectiveAlgo::kRing);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3 + iter);
      }
      comm.barrier();
    }
  });
}

// ---- selection policy -----------------------------------------------------

TEST(CollPolicy, AutoSelectionFollowsSizeThresholds) {
  pc::run(4, [](pc::Communicator& comm) {
    comm.stats().reset();
    // Short payload (8 B) -> recursive doubling; long (8192 B) ->
    // Rabenseifner at the default 4096 B threshold.
    (void)comm.allreduce_value(1.0, std::plus<double>{});
    std::vector<double> big(1024, 1.0), out(1024);
    comm.allreduce(std::span<const double>(big), std::span<double>(out),
                   std::plus<double>{});
    // Short allgather -> Bruck; long -> ring.
    (void)comm.allgather_value(comm.rank());
    (void)comm.allgather(std::span<const double>(big));
    const auto& s = comm.stats();
    EXPECT_EQ(s.algo_recursive_doubling, 1u);
    EXPECT_EQ(s.algo_rabenseifner, 1u);
    EXPECT_EQ(s.algo_bruck, 1u);
    EXPECT_EQ(s.algo_ring, 1u);
    EXPECT_EQ(s.algo_linear, 0u);
  });
}

// There is no per-world policy any more: kLinear is forced per call.
TEST(CollPolicy, ConfigForcesLinearEverywhere) {
  pc::run(4, [](pc::Communicator& comm) {
    comm.stats().reset();
    std::vector<double> big(1024, 1.0), out(1024);
    comm.allreduce(std::span<const double>(big), std::span<double>(out),
                   std::plus<double>{}, CollectiveAlgo::kLinear);
    (void)comm.allgather(std::span<const double>(big), CollectiveAlgo::kLinear);
    (void)comm.alltoallv(std::vector<std::vector<int>>(4));
    // 8, not 3: the linear composites book their nested stages too —
    // allreduce = itself + flat reduce + flat broadcast (3), allgather =
    // itself + gather + count broadcast + payload broadcast (4),
    // alltoallv = itself (1).
    EXPECT_EQ(comm.stats().algo_linear, 8u);
    EXPECT_EQ(comm.stats().algo_rabenseifner, 0u);
    EXPECT_EQ(comm.stats().algo_ring, 0u);
  });
}

TEST(CollPolicy, UnsupportedForcedAlgoThrows) {
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         (void)comm.allreduce_value(
                             1, std::plus<int>{}, CollectiveAlgo::kRing);
                       }),
               CommError);
  EXPECT_THROW(pc::run(2,
                       [](pc::Communicator& comm) {
                         (void)comm.allgather_value(
                             1, CollectiveAlgo::kRabenseifner);
                       }),
               CommError);
}

// ---- dissemination barrier pattern (satellite bugfix) ----------------------

// The old inline peer expression `(rank - k % p + p) % p` computed
// (rank - (k mod p)) mod p, which happens to equal (rank - k) mod p only
// while k < p. These properties must hold for ANY k so the pattern stays
// correct if the loop bound ever changes.
TEST(CollBarrier, DisseminationPeersAreInverseForAllDistances) {
  using C = pc::Communicator;
  for (int p = 1; p <= 9; ++p) {
    for (int k = 0; k <= 2 * p + 1; ++k) {
      for (int r = 0; r < p; ++r) {
        const int s = C::dissemination_send_peer(r, k, p);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, p);
        // If r signals s at distance k, then s must wait on r at k.
        EXPECT_EQ(C::dissemination_recv_peer(s, k, p), r)
            << "p=" << p << " k=" << k << " r=" << r;
        EXPECT_EQ(s, (r + k) % p);
      }
    }
  }
  // The k >= p case the old expression silently depended on never seeing:
  // distance 7 in a 5-rank world is distance 2.
  EXPECT_EQ(pc::Communicator::dissemination_send_peer(1, 7, 5), 3);
  EXPECT_EQ(pc::Communicator::dissemination_recv_peer(3, 7, 5), 1);
}

TEST(CollBarrier, BarrierCompletesAtAllRankCounts) {
  for (int p : kRankCounts) {
    pc::run(p, [](pc::Communicator& comm) {
      for (int i = 0; i < 5; ++i) comm.barrier();
      EXPECT_EQ(comm.stats().collectives, 5u);
    });
  }
}

// ---- byte-level core over odd element sizes --------------------------------
// The collective core moves bytes and folds elements through one callback,
// so element size matters wherever a schedule splits a buffer (Rabenseifner
// chunks, gather/scatter blocks, alltoall slots). These run every
// collective over 1-, 3- and 24-byte elements against a serial reference.

namespace {

struct [[gnu::packed]] Packed3 {
  std::uint8_t lo;
  std::uint16_t hi;
};
static_assert(sizeof(Packed3) == 3);
bool operator==(const Packed3& x, const Packed3& y) {
  return x.lo == y.lo && x.hi == y.hi;
}

struct Wide24 {
  std::int64_t a, b, c;
};
static_assert(sizeof(Wide24) == 24);
bool operator==(const Wide24& x, const Wide24& y) {
  return x.a == y.a && x.b == y.b && x.c == y.c;
}

// Per type: a value for (rank, index) and an exact (integer, wrapping)
// associative and commutative sum, so any schedule matches the reference.
template <class T>
struct Elem;
template <>
struct Elem<std::uint8_t> {
  static std::uint8_t make(int r, std::size_t i) {
    return static_cast<std::uint8_t>(31 * r + 7 * static_cast<int>(i) + 1);
  }
  static std::uint8_t add(std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(x + y);
  }
};
template <>
struct Elem<Packed3> {
  static Packed3 make(int r, std::size_t i) {
    return Packed3{static_cast<std::uint8_t>(r + static_cast<int>(i)),
                   static_cast<std::uint16_t>(1000 * r + 3 * i)};
  }
  static Packed3 add(Packed3 x, Packed3 y) {
    return Packed3{static_cast<std::uint8_t>(x.lo + y.lo),
                   static_cast<std::uint16_t>(x.hi + y.hi)};
  }
};
template <>
struct Elem<Wide24> {
  static Wide24 make(int r, std::size_t i) {
    const auto k = static_cast<std::int64_t>(i);
    return Wide24{r * 100000 + k, -k, r - 3 * k};
  }
  static Wide24 add(Wide24 x, Wide24 y) {
    return Wide24{x.a + y.a, x.b + y.b, x.c + y.c};
  }
};

const std::vector<int> kByteRanks{1, 3, 4, 7};
// 1500 elements clear the 4096-byte kAuto switch for 3- and 24-byte
// elements but not for 1-byte ones.
const std::vector<std::size_t> kByteCounts{0, 5, 1500};

template <class T>
std::vector<T> block_of(int r, std::size_t n) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Elem<T>::make(r, i);
  return v;
}

template <class T>
std::vector<T> sum_over_ranks(int p, std::size_t n) {
  std::vector<T> sum = block_of<T>(0, n);
  for (int r = 1; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] = Elem<T>::add(sum[i], Elem<T>::make(r, i));
    }
  }
  return sum;
}

template <class T>
class ByteCore : public ::testing::Test {};
using ElementTypes = ::testing::Types<std::uint8_t, Packed3, Wide24>;
TYPED_TEST_SUITE(ByteCore, ElementTypes);

}  // namespace

TYPED_TEST(ByteCore, ReductionsAndScansMatchSerialReference) {
  using T = TypeParam;
  const auto add = [](T x, T y) { return Elem<T>::add(x, y); };
  for (int p : kByteRanks) {
    for (std::size_t n : kByteCounts) {
      const auto expect = sum_over_ranks<T>(p, n);
      pc::run(p, [&](pc::Communicator& comm) {
        const auto mine = block_of<T>(comm.rank(), n);
        for (CollectiveAlgo algo :
             {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
              CollectiveAlgo::kRecursiveDoubling,
              CollectiveAlgo::kRabenseifner}) {
          std::vector<T> got(n);
          comm.allreduce(std::span<const T>(mine), std::span<T>(got), add,
                         algo);
          EXPECT_EQ(got, expect) << "allreduce p=" << p << " n=" << n
                                 << " " << pc::collective_algo_name(algo);
        }
        std::vector<T> nb(n);
        auto fut = comm.iallreduce(std::span<const T>(mine),
                                   std::span<T>(nb), add);
        fut.wait();
        EXPECT_EQ(nb, expect) << "iallreduce p=" << p << " n=" << n;
        for (CollectiveAlgo algo :
             {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
          const int root = p - 1;
          std::vector<T> got(comm.rank() == root ? n : 0);
          comm.reduce(std::span<const T>(mine), std::span<T>(got), add, root,
                      algo);
          if (comm.rank() == root) {
            EXPECT_EQ(got, expect);
          }
        }
        const T inc = comm.scan_inclusive(Elem<T>::make(comm.rank(), n), add);
        const T exc = comm.scan_exclusive(Elem<T>::make(comm.rank(), n), add,
                                          Elem<T>::make(-1, 0));
        T prefix = Elem<T>::make(0, n);
        for (int r = 1; r <= comm.rank(); ++r) {
          prefix = Elem<T>::add(prefix, Elem<T>::make(r, n));
        }
        EXPECT_EQ(inc, prefix);
        if (comm.rank() == 0) {
          EXPECT_EQ(exc, Elem<T>::make(-1, 0));
        } else {
          EXPECT_EQ(Elem<T>::add(exc, Elem<T>::make(comm.rank(), n)), prefix);
        }
      });
    }
  }
}

TYPED_TEST(ByteCore, FixedSizeMovesMatchSerialReference) {
  using T = TypeParam;
  for (int p : kByteRanks) {
    for (std::size_t n : kByteCounts) {
      std::vector<T> concat;
      for (int r = 0; r < p; ++r) {
        const auto b = block_of<T>(r, n);
        concat.insert(concat.end(), b.begin(), b.end());
      }
      pc::run(p, [&](pc::Communicator& comm) {
        const int me = comm.rank();
        const auto mine = block_of<T>(me, n);
        comm.barrier();
        for (CollectiveAlgo algo :
             {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
          const int root = p / 2;
          auto data = me == root ? block_of<T>(root, n) : std::vector<T>(n);
          comm.broadcast(std::span<T>(data), root, algo);
          EXPECT_EQ(data, block_of<T>(root, n));

          std::vector<T> all;
          comm.gather(std::span<const T>(mine), all, p - 1, algo);
          if (me == p - 1) {
            EXPECT_EQ(all, concat);
          }

          std::vector<T> part(n);
          comm.scatter(std::span<const T>(concat), std::span<T>(part), root,
                       algo);
          EXPECT_EQ(part, mine);

          std::vector<T> send(n * static_cast<std::size_t>(p));
          std::vector<T> recv(send.size());
          for (std::size_t i = 0; i < send.size(); ++i) {
            send[i] = Elem<T>::make(me, i);
          }
          comm.alltoall(std::span<const T>(send), std::span<T>(recv), algo);
          for (int src = 0; src < p; ++src) {
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_EQ(recv[static_cast<std::size_t>(src) * n + i],
                        Elem<T>::make(src, static_cast<std::size_t>(me) * n + i));
            }
          }
        }
        for (CollectiveAlgo algo :
             {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear,
              CollectiveAlgo::kBruck, CollectiveAlgo::kRing}) {
          EXPECT_EQ(comm.allgather(std::span<const T>(mine), algo), concat)
              << "allgather p=" << p << " n=" << n << " "
              << pc::collective_algo_name(algo);
        }
      });
    }
  }
}

TYPED_TEST(ByteCore, VariablePartsMatchSerialReference) {
  using T = TypeParam;
  // Rank r contributes n + r elements (n + src + dst for alltoallv).
  for (int p : kByteRanks) {
    for (std::size_t n : kByteCounts) {
      auto len = [n](int r) { return n + static_cast<std::size_t>(r); };
      pc::run(p, [&](pc::Communicator& comm) {
        const int me = comm.rank();
        const auto mine = block_of<T>(me, len(me));
        const auto gathered = comm.gatherv(std::span<const T>(mine), 0);
        ASSERT_EQ(gathered.size(), me == 0 ? static_cast<std::size_t>(p) : 0u);
        for (std::size_t r = 0; r < gathered.size(); ++r) {
          EXPECT_EQ(gathered[r], block_of<T>(static_cast<int>(r),
                                             len(static_cast<int>(r))));
        }
        for (CollectiveAlgo algo :
             {CollectiveAlgo::kAuto, CollectiveAlgo::kLinear}) {
          const auto chunks = comm.allgatherv(std::span<const T>(mine), algo);
          ASSERT_EQ(chunks.size(), static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            EXPECT_EQ(chunks[static_cast<std::size_t>(r)],
                      block_of<T>(r, len(r)));
          }
        }
        std::vector<std::vector<T>> parts;
        if (me == p - 1) {
          for (int r = 0; r < p; ++r) parts.push_back(block_of<T>(r, len(r)));
        }
        EXPECT_EQ(comm.scatterv(parts, p - 1), mine);
        std::vector<std::vector<T>> send(static_cast<std::size_t>(p));
        for (int dst = 0; dst < p; ++dst) {
          send[static_cast<std::size_t>(dst)] = block_of<T>(me, len(me + dst));
        }
        const auto recv = comm.alltoallv(std::move(send));
        for (int src = 0; src < p; ++src) {
          EXPECT_EQ(recv[static_cast<std::size_t>(src)],
                    block_of<T>(src, len(src + me)));
        }
      });
    }
  }
}
