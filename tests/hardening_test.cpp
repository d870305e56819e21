// Hardening sweep: paths the per-module suites don't stress — arbitrary
// (cyclic) row maps through the distributed directory in CrsMatrix and
// AMG, zero-size payload collectives, MiniPy loop and branch edge cases,
// randomized float/array MiniPy programs on the interpreter and the JIT,
// and empty-rank layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "precond/amg.hpp"
#include "seamless/seamless.hpp"
#include "solvers/krylov.hpp"
#include "util/random.hpp"

namespace pc = pyhpc::comm;
namespace tp = pyhpc::tpetra;
namespace gl = pyhpc::galeri;
namespace sm = pyhpc::seamless;

using LO = std::int32_t;
using GO = std::int64_t;
using sm::Value;

// ---------------------------------------------------------------------------
// Arbitrary row maps: every Import/Export goes through the distributed
// directory instead of contiguous arithmetic.
// ---------------------------------------------------------------------------

namespace {
tp::Map<> cyclic_map(pc::Communicator& comm, GO n) {
  std::vector<GO> mine;
  for (GO g = comm.rank(); g < n; g += comm.size()) mine.push_back(g);
  return tp::Map<>::from_global_indices(comm, mine);
}
}  // namespace

class CyclicMatrixSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CyclicMatrixSweep, ::testing::Values(1, 2, 3, 5));

TEST_P(CyclicMatrixSweep, SpmvOnCyclicRowMapMatchesBlockMap) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 40;
    // The same 1D Laplacian assembled over a cyclic map and a block map
    // must produce identical results (up to layout).
    auto cyc = cyclic_map(comm, n);
    tp::CrsMatrix<double> ac(cyc);
    for (LO i = 0; i < cyc.num_local(); ++i) {
      const GO g = cyc.local_to_global(i);
      if (g > 0) ac.insert_global_value(g, g - 1, -1.0);
      ac.insert_global_value(g, g, 2.0);
      if (g + 1 < n) ac.insert_global_value(g, g + 1, -1.0);
    }
    ac.fill_complete();

    tp::Vector<double> x(cyc), y(cyc);
    for (LO i = 0; i < cyc.num_local(); ++i) {
      x[i] = std::cos(0.37 * static_cast<double>(cyc.local_to_global(i)));
    }
    ac.apply(x, y);

    auto block = tp::Map<>::uniform(comm, n);
    auto ab = gl::laplace1d(block);
    tp::Vector<double> xb(block), yb(block);
    for (LO i = 0; i < block.num_local(); ++i) {
      xb[i] = std::cos(0.37 * static_cast<double>(block.local_to_global(i)));
    }
    ab.apply(xb, yb);

    auto got = y.gather_global();
    auto want = yb.gather_global();
    for (GO g = 0; g < n; ++g) {
      EXPECT_NEAR(got[static_cast<std::size_t>(g)],
                  want[static_cast<std::size_t>(g)], 1e-13)
          << "row " << g;
    }
  });
}

TEST_P(CyclicMatrixSweep, CgSolvesOnCyclicMap) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 36;
    auto cyc = cyclic_map(comm, n);
    tp::CrsMatrix<double> a(cyc);
    for (LO i = 0; i < cyc.num_local(); ++i) {
      const GO g = cyc.local_to_global(i);
      if (g > 0) a.insert_global_value(g, g - 1, -1.0);
      a.insert_global_value(g, g, 2.0);
      if (g + 1 < n) a.insert_global_value(g, g + 1, -1.0);
    }
    a.fill_complete();
    auto b = gl::rhs_for_ones(a);
    tp::Vector<double> x(cyc, 0.0);
    auto res = pyhpc::solvers::cg_solve(a, b, x);
    EXPECT_TRUE(res.converged) << res.summary();
    tp::Vector<double> err(cyc, 1.0);
    err.update(1.0, x, -1.0);
    EXPECT_LT(err.norm2(), 1e-6);
  });
}

TEST(EmptyRanks, MapsAndVectorsWithZeroLocalRows) {
  // More ranks than rows: some ranks own nothing, everything must still
  // work (collectives, SpMV, reductions).
  pc::run(6, [](pc::Communicator& comm) {
    const GO n = 4;
    auto map = tp::Map<>::uniform(comm, n);
    auto a = gl::laplace1d(map);
    auto b = gl::rhs_for_ones(a);
    tp::Vector<double> x(map, 0.0);
    auto res = pyhpc::solvers::cg_solve(a, b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(x.mean_value(), 1.0, 1e-8);
  });
}

TEST(AmgOnNonUniformMap, SkewedBlockSizes) {
  pc::run(3, [](pc::Communicator& comm) {
    // Rank 0 gets most rows; AMG must still build and contract.
    const LO mine = comm.rank() == 0 ? 80 : 10;
    auto map = tp::Map<>::from_local_sizes(comm, mine);
    auto a = gl::laplace1d(map);
    pyhpc::precond::AmgPreconditioner amg(a);
    auto b = gl::rhs_for_ones(a);
    tp::Vector<double> x(map, 0.0);
    auto res = pyhpc::solvers::cg_solve(a, b, x, {}, &amg);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.iterations, 30);
  });
}

// ---------------------------------------------------------------------------
// comm edge cases
// ---------------------------------------------------------------------------

TEST(CommEdge, ZeroLengthPayloads) {
  pc::run(3, [](pc::Communicator& comm) {
    // Empty typed payloads through p2p and collectives.
    if (comm.rank() == 0) {
      comm.send(std::span<const double>{}, 1, 5);
    } else if (comm.rank() == 1) {
      auto v = comm.recv_vector<double>(0, 5);
      EXPECT_TRUE(v.empty());
    }
    std::vector<int> nothing;
    comm.broadcast(std::span<int>(nothing), 0);
    auto chunks = comm.allgatherv(std::span<const int>(nothing));
    for (const auto& c : chunks) EXPECT_TRUE(c.empty());
    auto parts = comm.alltoallv(std::vector<std::vector<int>>(
        static_cast<std::size_t>(comm.size())));
    for (const auto& p : parts) EXPECT_TRUE(p.empty());
  });
}

TEST(CommEdge, LargePayloadRoundTrip) {
  pc::run(2, [](pc::Communicator& comm) {
    const std::size_t n = 1 << 20;  // 8 MB
    if (comm.rank() == 0) {
      std::vector<double> big(n);
      std::iota(big.begin(), big.end(), 0.0);
      comm.send(std::span<const double>(big), 1, 0);
    } else {
      auto big = comm.recv_vector<double>(0, 0);
      ASSERT_EQ(big.size(), n);
      EXPECT_DOUBLE_EQ(big[n - 1], static_cast<double>(n - 1));
    }
  });
}

TEST(CommEdge, ManyInterleavedCollectivesAcrossDuplicates) {
  pc::run(4, [](pc::Communicator& comm) {
    auto dup = comm.duplicate();
    // Interleave collectives on two communicators sharing one context;
    // tags from independent sequence counters must not cross-match.
    for (int i = 0; i < 25; ++i) {
      EXPECT_EQ(comm.allreduce_value<int>(i, std::plus<int>{}), 4 * i);
      EXPECT_EQ(dup.allreduce_value<int>(2 * i, std::plus<int>{}), 8 * i);
      EXPECT_EQ(comm.broadcast_value(comm.rank() == 1 ? i : -1, 1), i);
    }
  });
}

// ---------------------------------------------------------------------------
// Loop and branch edge cases
// ---------------------------------------------------------------------------

TEST(Peephole, JumpTargetsIntoWindowsPreserved) {
  // `continue` skips the rest of a while body, which must still re-test the
  // loop condition.
  const std::string src =
      "def f(n):\n"
      "    total = 0\n"
      "    i = 0\n"
      "    while i < n:\n"
      "        i += 1\n"
      "        if i % 3 == 0:\n"
      "            continue\n"
      "        total += i\n"
      "    return total\n";
  sm::Engine engine(src);
  int want = 0;
  for (int i = 1; i <= 20; ++i) {
    if (i % 3 != 0) want += i;
  }
  EXPECT_EQ(engine.run_interpreted("f", {Value::of(20)}).as_int(), want);
}

TEST(Peephole, UndefinedLocalStillCaughtInFusedOps) {
  // y is bound on one branch only; reading it after the other one faults.
  sm::Engine engine(
      "def f(flag):\n"
      "    x = 1\n"
      "    if flag:\n"
      "        y = 2\n"
      "    return x + y\n");
  EXPECT_EQ(engine.run_interpreted("f", {Value::of(true)}).as_int(), 3);
  EXPECT_THROW(engine.run_interpreted("f", {Value::of(false)}),
               pyhpc::RuntimeFault);
}

// ---------------------------------------------------------------------------
// Randomized float/array programs across all tiers
// ---------------------------------------------------------------------------

TEST(RandomPrograms, FloatArrayKernelsAgreeAcrossTiers) {
  pyhpc::util::Xoshiro256 rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const double c1 = 0.25 * static_cast<double>(rng.next_int(1, 8));
    const double c2 = 0.5 * static_cast<double>(rng.next_int(1, 6));
    const std::int64_t stride = rng.next_int(1, 3);
    const std::string src =
        "def kernel(a, t):\n"
        "    acc = 0.0\n"
        "    for i in range(0, len(a), " + std::to_string(stride) + "):\n"
        "        v = a[i] * " + std::to_string(c1) + " + t\n"
        "        if v > " + std::to_string(c2) + ":\n"
        "            acc += v\n"
        "        else:\n"
        "            acc -= abs(v)\n"
        "    return sqrt(abs(acc) + 1.0)\n";
    sm::Engine engine(src);
    std::vector<double> data(37);
    for (auto& x : data) x = 4.0 * rng.next_double() - 2.0;
    auto arr = sm::ArrayValue::owned(data);
    std::vector<Value> args{Value::of(arr), Value::of(rng.next_double())};
    const double vi = engine.run_interpreted("kernel", args).as_float();
    const double vj = engine.run_jit("kernel", args).as_float();
    EXPECT_DOUBLE_EQ(vi, vj) << src;
  }
}

TEST(RandomPrograms, RecursiveIntFunctionsInterpreterVsVm) {
  pyhpc::util::Xoshiro256 rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t k = rng.next_int(2, 4);
    const std::string src =
        "def f(n):\n"
        "    if n <= 1:\n"
        "        return 1\n"
        "    return f(n - 1) + " + std::to_string(k) + " * f(n - 2)\n";
    // The JIT rejects recursion, so the @jit copy runs on the fallback.
    sm::Engine plain(src);
    sm::Engine jitted("@jit\n" + src);
    const auto n = rng.next_int(3, 12);
    EXPECT_EQ(plain.run_interpreted("f", {Value::of(n)}).as_int(),
              jitted.run("f", {Value::of(n)}).as_int());
    EXPECT_EQ(jitted.jit_cache_size(), 0u);
  }
}

TEST(CommSoak, RandomizedCollectiveAndP2pSchedule) {
  // Stress the internal tag sequencing: a long, deterministic, random mix
  // of collectives and p2p traffic (same schedule derived on every rank
  // from a shared seed).
  pc::run(4, [](pc::Communicator& comm) {
    pyhpc::util::Xoshiro256 sched(4242);  // same stream on every rank
    for (int step = 0; step < 200; ++step) {
      const auto kind = sched.next_int(0, 4);
      switch (kind) {
        case 0: {
          const int want = static_cast<int>(sched.next_int(0, 1000));
          EXPECT_EQ(comm.broadcast_value(comm.rank() == 2 ? want : -1, 2),
                    want);
          break;
        }
        case 1: {
          const auto v = sched.next_int(1, 50);
          EXPECT_EQ(comm.allreduce_value<std::int64_t>(
                        v, std::plus<std::int64_t>{}),
                    v * comm.size());
          break;
        }
        case 2: {
          // Ring p2p with a schedule-derived tag.
          const int tag = static_cast<int>(sched.next_int(0, 1 << 20));
          const int next = (comm.rank() + 1) % comm.size();
          const int prev = (comm.rank() + comm.size() - 1) % comm.size();
          comm.send_value(comm.rank() * 7, next, tag);
          EXPECT_EQ(comm.recv_value<int>(prev, tag), prev * 7);
          break;
        }
        case 3: {
          auto all = comm.allgather_value(comm.rank());
          for (int r = 0; r < comm.size(); ++r) {
            EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
          }
          break;
        }
        default: {
          const auto inc = comm.scan_inclusive<std::int64_t>(
              1, std::plus<std::int64_t>{});
          EXPECT_EQ(inc, comm.rank() + 1);
          break;
        }
      }
    }
  });
}

TEST(JitTypes, LoopCarriedWideningConverges) {
  // x starts int, becomes float inside the loop: the fixpoint must widen x
  // to float everywhere and all tiers must agree.
  sm::Engine engine(
      "def f(n):\n"
      "    x = 1\n"
      "    for i in range(n):\n"
      "        x = x + 0.5\n"
      "    return x\n");
  const double want = 1.0 + 0.5 * 7;
  EXPECT_DOUBLE_EQ(engine.run_jit("f", {Value::of(7)}).as_float(), want);
  EXPECT_DOUBLE_EQ(engine.run_interpreted("f", {Value::of(7)}).to_double(),
                   want);
  const auto& fn = engine.jit("f", {sm::JitType::kInt});
  EXPECT_EQ(fn.return_type(), sm::JitType::kFloat);
}
