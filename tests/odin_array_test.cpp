// Tests for DistArray: creation routines, ufuncs (distributed == serial
// NumPy reference), reductions, conformance strategies with communication
// counting, redistribution, and global access.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "comm/runner.hpp"
#include "odin/dist_array.hpp"
#include "odin/ufunc.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
using od::index_t;
using Arr = od::DistArray<double>;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4};
}

class ArraySweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ArraySweep, ::testing::ValuesIn(kRankCounts));

TEST_P(ArraySweep, CreationRoutines) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({17}), 0);
    auto z = Arr::zeros(dist);
    auto o = Arr::ones(dist);
    auto f = Arr::full(dist, 2.5);
    EXPECT_DOUBLE_EQ(z.sum(), 0.0);
    EXPECT_DOUBLE_EQ(o.sum(), 17.0);
    EXPECT_DOUBLE_EQ(f.sum(), 17.0 * 2.5);

    auto ar = Arr::arange(dist, 10.0, 2.0);  // 10, 12, ..., 42
    auto full = ar.gather();
    for (index_t g = 0; g < 17; ++g) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(g)],
                       10.0 + 2.0 * static_cast<double>(g));
    }

    auto ls = Arr::linspace(dist, 0.0, 1.0);
    auto lf = ls.gather();
    EXPECT_DOUBLE_EQ(lf.front(), 0.0);
    EXPECT_DOUBLE_EQ(lf.back(), 1.0);
    EXPECT_NEAR(lf[8], 0.5, 1e-12);
  });
}

// Kernel result arrays are allocated without the zero-fill pass
// (DistArray::uninitialized, DESIGN.md §11); the zero-semantics
// constructors must keep zeroing regardless — every element, not just a
// reduction over them.
TEST_P(ArraySweep, FreshAndZerosArraysAreElementwiseZero) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({257}), 0);
    Arr fresh(dist);
    auto z = Arr::zeros(dist);
    for (const double v : fresh.local_view()) EXPECT_EQ(v, 0.0);
    for (const double v : z.local_view()) EXPECT_EQ(v, 0.0);
  });
}

TEST_P(ArraySweep, LinspaceMatchesPaperExample) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // x = odin.linspace(1, 2*pi, n); y = odin.sin(x)  (paper §III.G).
    const index_t n = 1000;
    auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto x = Arr::linspace(dist, 1.0, 2.0 * M_PI);
    auto y = od::sin(x);
    EXPECT_TRUE(y.dist().conformable(x.dist()))
        << "y has the same distribution as x, as it is a simple application "
           "of sin to each element of x";
    auto xf = x.gather();
    auto yf = y.gather();
    for (index_t g = 0; g < n; g += 97) {
      EXPECT_NEAR(yf[static_cast<std::size_t>(g)],
                  std::sin(xf[static_cast<std::size_t>(g)]), 1e-14);
    }
  });
}

TEST_P(ArraySweep, FromFunctionUsesGlobalIndices) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({6, 4}), 0);
    auto a = Arr::fromfunction(dist, [](const std::vector<index_t>& g) {
      return static_cast<double>(10 * g[0] + g[1]);
    });
    auto full = a.gather();
    for (index_t i = 0; i < 6; ++i) {
      for (index_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i * 4 + j)],
                         static_cast<double>(10 * i + j));
      }
    }
  });
}

TEST_P(ArraySweep, RandomIsDeterministicAndInRange) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({64}), 0);
    auto a = Arr::random(dist, 7);
    auto b = Arr::random(dist, 7);
    auto c = Arr::random(dist, 8);
    auto av = a.local_view();
    auto bv = b.local_view();
    for (std::size_t i = 0; i < av.size(); ++i) {
      EXPECT_EQ(av[i], bv[i]);
      EXPECT_GE(av[i], 0.0);
      EXPECT_LT(av[i], 1.0);
    }
    EXPECT_NE(a.sum(), c.sum());
  });
}

TEST_P(ArraySweep, UnaryUfuncsMatchSerial) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::cyclic(comm, od::Shape({40}), 0);
    auto x = Arr::arange(dist, 0.1, 0.2);
    auto sq = od::square(x).gather();
    auto ex = od::exp(x).gather();
    auto ng = od::negate(x).gather();
    auto xf = x.gather();
    for (std::size_t i = 0; i < xf.size(); ++i) {
      EXPECT_NEAR(sq[i], xf[i] * xf[i], 1e-14);
      EXPECT_NEAR(ex[i], std::exp(xf[i]), 1e-12);
      EXPECT_DOUBLE_EQ(ng[i], -xf[i]);
    }
  });
}

TEST_P(ArraySweep, PaperHypotExample) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // §III.C: hypot(x, y) = sqrt(x^2 + y^2) elementwise on two ND arrays.
    auto dist = od::Distribution::block(comm, od::Shape({8, 8}), 0);
    auto x = Arr::random(dist, 1);
    auto y = Arr::random(dist, 2);
    auto h = od::hypot(x, y);
    auto xf = x.gather();
    auto yf = y.gather();
    auto hf = h.gather();
    for (std::size_t i = 0; i < hf.size(); ++i) {
      EXPECT_NEAR(hf[i], std::hypot(xf[i], yf[i]), 1e-14);
    }
    // Equivalent formulation through arithmetic ops.
    auto h2 = od::sqrt(od::square(x) + od::square(y));
    auto h2f = h2.gather();
    for (std::size_t i = 0; i < hf.size(); ++i) {
      EXPECT_NEAR(h2f[i], hf[i], 1e-14);
    }
  });
}

TEST_P(ArraySweep, ConformableBinaryNeedsNoCommunication) {
  const int p = GetParam();
  auto stats = pc::run_with_stats(p, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({1000}), 0);
    auto a = Arr::random(dist, 1);
    auto b = Arr::random(dist, 2);
    comm.stats().reset();
    auto c = a + b;
    (void)c;
    // Element data must not move: no point-to-point traffic, and the only
    // collective bytes would come from none being issued here.
    EXPECT_EQ(comm.stats().p2p_bytes_sent, 0u);
    EXPECT_EQ(comm.stats().coll_bytes_sent, 0u);
  });
  (void)stats;
}

TEST_P(ArraySweep, NonConformableBinaryRedistributes) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const index_t n = 60;
    auto bdist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto cdist = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    auto a = Arr::arange(bdist, 0.0, 1.0);
    auto b = Arr::arange(cdist, 0.0, 2.0);
    auto c = a + b;  // kAuto
    auto cf = c.gather();
    for (index_t g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(cf[static_cast<std::size_t>(g)],
                       3.0 * static_cast<double>(g));
    }
    // Explicit strategies give the same numbers with controlled layouts.
    auto cl = a.zip(b, std::plus<double>{}, od::ConformStrategy::kLeft);
    auto cr = a.zip(b, std::plus<double>{}, od::ConformStrategy::kRight);
    EXPECT_TRUE(cl.dist().conformable(b.dist()));
    EXPECT_TRUE(cr.dist().conformable(a.dist()));
    EXPECT_EQ(cl.gather(), cf);
    EXPECT_EQ(cr.gather(), cf);
  });
}

TEST_P(ArraySweep, AutoStrategyPicksCheaperDirection) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    if (comm.size() == 1) return;
    const index_t n = 48;
    auto bdist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto cdist = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    Arr a = Arr::ones(bdist);
    Arr b = Arr::ones(cdist);
    // Costs are symmetric here, but the measured numbers must agree with
    // redistribution_cost's definition.
    const index_t cost_b_to_a = od::redistribution_cost(b, a.dist());
    const index_t cost_a_to_b = od::redistribution_cost(a, b.dist());
    EXPECT_GT(cost_b_to_a, 0);
    EXPECT_GT(cost_a_to_b, 0);
    // Same-layout redistribution is free.
    EXPECT_EQ(od::redistribution_cost(a, a.dist()), 0);
    // A replicated operand: moving it sends only its canonical copy's
    // off-rank elements, moving the other onto it sends a copy to every
    // other rank — so kAuto moves the replicated one, as
    // redistribution_cost ranks them.
    Arr r = Arr::ones(od::Distribution::replicated(comm, od::Shape({n})));
    EXPECT_LT(od::redistribution_cost(r, a.dist()),
              od::redistribution_cost(a, r.dist()));
    EXPECT_TRUE((r + a).dist().conformable(a.dist()));
    EXPECT_TRUE((a + r).dist().conformable(a.dist()));
  });
}

TEST_P(ArraySweep, MismatchedShapesThrow) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto d1 = od::Distribution::block(comm, od::Shape({10}), 0);
    auto d2 = od::Distribution::block(comm, od::Shape({11}), 0);
    Arr a = Arr::ones(d1);
    Arr b = Arr::ones(d2);
    EXPECT_THROW((void)(a + b), pyhpc::ShapeError);
    // Costing and moving check the shape alike, before any collective.
    auto wide = od::Distribution::cyclic(comm, od::Shape({20}), 0);
    EXPECT_THROW((void)od::redistribution_cost(a, wide), pyhpc::ShapeError);
    EXPECT_THROW((void)od::redistribute(a, wide), pyhpc::ShapeError);
  });
}

TEST_P(ArraySweep, ReductionsMatchSerial) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const index_t n = 35;
    auto dist = od::Distribution::block_cyclic(comm, od::Shape({n}), 0, 3);
    auto x = Arr::fromfunction(dist, [n](const std::vector<index_t>& g) {
      return std::cos(static_cast<double>(g[0]));  // mixed signs
    });
    double want_sum = 0.0, want_min = 1e300, want_max = -1e300, want_sq = 0.0;
    for (index_t g = 0; g < n; ++g) {
      const double v = std::cos(static_cast<double>(g));
      want_sum += v;
      want_min = std::min(want_min, v);
      want_max = std::max(want_max, v);
      want_sq += v * v;
    }
    EXPECT_NEAR(x.sum(), want_sum, 1e-12);
    EXPECT_DOUBLE_EQ(x.min(), want_min);
    EXPECT_DOUBLE_EQ(x.max(), want_max);
    EXPECT_NEAR(x.mean(), want_sum / static_cast<double>(n), 1e-13);
    EXPECT_NEAR(x.norm2(), std::sqrt(want_sq), 1e-12);
  });
}

TEST_P(ArraySweep, ArgminArgmaxReturnGlobalIndices) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::cyclic(comm, od::Shape({6, 5}), 0);
    auto x = Arr::fromfunction(dist, [](const std::vector<index_t>& g) {
      if (g[0] == 4 && g[1] == 2) return -50.0;
      if (g[0] == 1 && g[1] == 3) return 50.0;
      return static_cast<double>(g[0] + g[1]);
    });
    EXPECT_EQ(x.argmin(), (std::vector<index_t>{4, 2}));
    EXPECT_EQ(x.argmax(), (std::vector<index_t>{1, 3}));
  });
}

TEST_P(ArraySweep, GlobalGetSet) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({12}), 0);
    Arr a = Arr::zeros(dist);
    a.set_global({7}, 3.25);
    EXPECT_DOUBLE_EQ(a.get_global({7}), 3.25);
    EXPECT_DOUBLE_EQ(a.get_global({0}), 0.0);
    EXPECT_DOUBLE_EQ(a.sum(), 3.25);
  });
}

TEST_P(ArraySweep, RedistributeRoundTripsAcrossSchemes) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const index_t n = 29;
    auto block = od::Distribution::block(comm, od::Shape({n}), 0);
    auto x = Arr::arange(block, 0.0, 1.0);
    for (auto make : {+[](pc::Communicator& c, index_t m) {
                        return od::Distribution::cyclic(c, od::Shape({m}), 0);
                      },
                      +[](pc::Communicator& c, index_t m) {
                        return od::Distribution::block_cyclic(
                            c, od::Shape({m}), 0, 4);
                      }}) {
      auto there = od::redistribute(x, make(comm, n));
      auto back = od::redistribute(there, x.dist());
      auto bf = back.gather();
      for (index_t g = 0; g < n; ++g) {
        EXPECT_DOUBLE_EQ(bf[static_cast<std::size_t>(g)],
                         static_cast<double>(g));
      }
    }
  });
}

TEST_P(ArraySweep, RedistributeToReplicatedFillsEveryRank) {
  // Regression: redistribute shipped each element only to the canonical
  // owner, so a replicated target was filled on rank 0 and left zeroed on
  // every other rank (and the return trip then raced p divergent copies).
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const index_t n = 10;
    auto block = od::Distribution::block(comm, od::Shape({n}), 0);
    auto x = Arr::arange(block, 1.0, 1.0);
    auto rep = od::redistribute(x, od::Distribution::replicated(comm, od::Shape({n})));
    ASSERT_EQ(rep.local_size(), n);  // every rank holds the full array
    for (index_t l = 0; l < n; ++l) {
      EXPECT_DOUBLE_EQ(rep.local_view()[static_cast<std::size_t>(l)],
                       static_cast<double>(l) + 1.0)
          << "rank " << comm.rank() << " local " << l;
    }
    // And back: one canonical copy moves, not p racing ones.
    auto back = od::redistribute(rep, block);
    for (index_t l = 0; l < back.local_size(); ++l) {
      const auto g = back.dist().global_of_local(l);
      EXPECT_DOUBLE_EQ(back.local_view()[static_cast<std::size_t>(l)],
                       static_cast<double>(g[0]) + 1.0);
    }
  });
}

TEST(OdinRedistribute, RejectsDistributionsOverDifferentCommunicatorSizes) {
  // Regression: a source over a 2-rank split and a target over the 4-rank
  // world indexed the send parts past their end. The plan rejects the pair
  // on every rank before any collective starts.
  pc::run(4, [](pc::Communicator& comm) {
    auto half = comm.split(comm.rank() / 2, comm.rank());
    const od::Shape shape{12};
    const Arr a = Arr::arange(od::Distribution::block(half, shape, 0));
    const auto world_cyclic = od::Distribution::cyclic(comm, shape, 0);
    const Arr b = Arr::ones(world_cyclic);
    EXPECT_THROW((void)od::redistribute(a, world_cyclic),
                 pyhpc::InvalidArgument);
    EXPECT_THROW((void)od::redistribution_cost(a, world_cyclic),
                 pyhpc::InvalidArgument);
    EXPECT_THROW((void)(a + b), pyhpc::InvalidArgument);
    EXPECT_THROW((void)(b + a), pyhpc::InvalidArgument);
    // Nothing was left in flight: both communicators still reduce.
    EXPECT_DOUBLE_EQ(a.sum(), 66.0);
    EXPECT_DOUBLE_EQ(b.sum(), 12.0);
  });
}

// Regression: the plan numbers targets in the target's communicator while
// the move runs over the source's. Over a split that reverses rank order,
// every element landed on the wrong rank without an error. The plan now
// rejects layouts over different communicators on every rank.
TEST(OdinRedistribute, RejectsCommunicatorsThatOrderRanksDifferently) {
  pc::run(4, [](pc::Communicator& comm) {
    auto reversed = comm.split(0, comm.size() - comm.rank());
    ASSERT_EQ(reversed.rank(), comm.size() - 1 - comm.rank());
    const od::Shape shape{16};
    const Arr a = Arr::arange(od::Distribution::block(reversed, shape, 0));
    const auto world_cyclic = od::Distribution::cyclic(comm, shape, 0);
    const Arr b = Arr::ones(world_cyclic);
    EXPECT_THROW((void)od::redistribute(a, world_cyclic),
                 pyhpc::InvalidArgument);
    EXPECT_THROW((void)od::redistribution_cost(a, world_cyclic),
                 pyhpc::InvalidArgument);
    EXPECT_THROW((void)(a + b), pyhpc::InvalidArgument);
    // Even one layout over two equal worlds is not conformable.
    const Arr c = Arr::ones(od::Distribution::block(comm, shape, 0));
    EXPECT_THROW((void)(a + c), pyhpc::InvalidArgument);
    EXPECT_DOUBLE_EQ(a.sum(), 120.0);
    EXPECT_DOUBLE_EQ(b.sum(), 16.0);
  });
}

// Regression: a source over {0,1}|{2,3,4} and a target over {0,1,2}|{3,4}
// have equal communicator sizes on rank 2 only, so rank 2 entered the
// alltoallv alone while the others threw. Every rank now throws.
TEST(OdinRedistribute, RejectsLayoutsOverDifferentSplits) {
  pc::run(5, [](pc::Communicator& comm) {
    auto low2 = comm.split(comm.rank() < 2 ? 0 : 1, comm.rank());
    auto low3 = comm.split(comm.rank() < 3 ? 0 : 1, comm.rank());
    const od::Shape shape{12};
    const Arr a = Arr::arange(od::Distribution::block(low2, shape, 0));
    const auto target = od::Distribution::cyclic(low3, shape, 0);
    const Arr b = Arr::ones(target);
    EXPECT_THROW((void)od::redistribute(a, target), pyhpc::InvalidArgument);
    EXPECT_THROW((void)od::redistribution_cost(a, target),
                 pyhpc::InvalidArgument);
    EXPECT_THROW((void)(a + b), pyhpc::InvalidArgument);
    EXPECT_DOUBLE_EQ(a.sum(), 66.0);
    EXPECT_DOUBLE_EQ(b.sum(), 12.0);
  });
}

// E8's byte count, exactly: only the values of elements that change rank
// cross the wire (8 B per double), and a layout that moves nothing sends
// nothing.
TEST(OdinRedistribute, CollectiveBytesAreTheMovedValues) {
  pc::run(4, [](pc::Communicator& comm) {
    const index_t n = 65536;
    const od::Shape shape{n};
    const auto block = od::Distribution::block(comm, shape, 0);
    const auto block_cuts = od::Distribution::explicit_block(
        comm, shape, 0, std::vector<index_t>(4, n / 4));
    const Arr a = Arr::arange(block);
    auto bytes_to = [&](const od::Distribution& to) {
      comm.barrier();
      comm.stats().reset();
      const Arr moved = od::redistribute(a, to);
      const std::uint64_t mine = comm.stats().coll_bytes_sent;
      return comm.allreduce_value(mine, std::plus<std::uint64_t>{});
    };
    // Block -> cyclic at p = 4: three quarters of the elements move.
    EXPECT_EQ(bytes_to(od::Distribution::cyclic(comm, shape, 0)),
              49152u * sizeof(double));
    EXPECT_EQ(bytes_to(block), 0u);
    EXPECT_EQ(bytes_to(block_cuts), 0u);
  });
}

// Property sweep: every ordered pair of layouts of one shape — 1D, 2D with
// either axis or both distributed, 3D with an undistributed middle axis,
// empty sections, replication — moves every element to its place, costs
// what a brute-force count from global_of_local and owner_of says, and
// adds under kAuto to the serial sum.
namespace {
struct Layout {
  std::string name;
  od::Distribution dist;
  bool replicated;
};

// Rank 1's section is empty (p >= 2); the others grow with the rank.
std::vector<index_t> skewed_sizes(index_t n, int p) {
  std::vector<index_t> sizes(static_cast<std::size_t>(p), 0);
  index_t weight = 0;
  for (int r = 0; r < p; ++r) weight += r == 1 ? 0 : r + 1;
  index_t used = 0;
  for (int r = 0; r < p; ++r) {
    if (r == 1) continue;
    sizes[static_cast<std::size_t>(r)] = n * (r + 1) / weight;
    used += sizes[static_cast<std::size_t>(r)];
  }
  sizes.back() += n - used;
  return sizes;
}

// Two-dimensional process grids of p with both extents above 1.
std::vector<std::vector<int>> grids_of(int p) {
  std::vector<std::vector<int>> grids;
  for (int rows = 2; rows <= p / 2; ++rows) {
    if (p % rows == 0) grids.push_back({rows, p / rows});
  }
  return grids;
}

std::vector<Layout> layouts_1d(pc::Communicator& comm, index_t n) {
  const od::Shape s{n};
  return {{"block", od::Distribution::block(comm, s, 0), false},
          {"cyclic", od::Distribution::cyclic(comm, s, 0), false},
          {"block_cyclic1", od::Distribution::block_cyclic(comm, s, 0, 1),
           false},
          {"block_cyclic3", od::Distribution::block_cyclic(comm, s, 0, 3),
           false},
          {"skewed",
           od::Distribution::explicit_block(comm, s, 0,
                                            skewed_sizes(n, comm.size())),
           false},
          {"replicated", od::Distribution::replicated(comm, s), true}};
}

std::vector<Layout> layouts_2d(pc::Communicator& comm) {
  const od::Shape s{7, 10};
  std::vector<Layout> out{
      {"block_rows", od::Distribution::block(comm, s, 0), false},
      {"block_cols", od::Distribution::block(comm, s, 1), false},
      {"cyclic_cols", od::Distribution::cyclic(comm, s, 1), false},
      {"block_cyclic_rows", od::Distribution::block_cyclic(comm, s, 0, 2),
       false},
      {"replicated", od::Distribution::replicated(comm, s), true}};
  for (const auto& g : grids_of(comm.size())) {
    out.push_back({"grid" + std::to_string(g[0]) + "x" + std::to_string(g[1]),
                   od::Distribution::block_grid(comm, s, {0, 1}, g), false});
  }
  return out;
}

std::vector<Layout> layouts_3d(pc::Communicator& comm) {
  const od::Shape s{4, 3, 5};
  std::vector<Layout> out{
      {"block_axis0", od::Distribution::block(comm, s, 0), false},
      {"block_axis2", od::Distribution::block(comm, s, 2), false},
      {"replicated", od::Distribution::replicated(comm, s), true}};
  for (const auto& g : grids_of(comm.size())) {
    out.push_back({"grid02_" + std::to_string(g[0]) + "x" +
                       std::to_string(g[1]),
                   od::Distribution::block_grid(comm, s, {0, 2}, g), false});
  }
  return out;
}

index_t linear_of(const od::Shape& shape, const std::vector<index_t>& g) {
  index_t lin = 0;
  for (int a = 0; a < shape.ndim(); ++a) {
    lin = lin * shape.extent(a) + g[static_cast<std::size_t>(a)];
  }
  return lin;
}

// Elements leaving their rank, counted one by one: only the canonical copy
// of a replicated source sends, and a replicated target takes p - 1 copies.
index_t brute_force_cost(const Layout& from, const Layout& to,
                         pc::Communicator& comm) {
  index_t moving = 0;
  for (index_t l = 0; l < from.dist.local_count(); ++l) {
    const auto g = from.dist.global_of_local(l);
    if (from.dist.owner_of(g).first != comm.rank()) continue;
    if (to.replicated) {
      moving += comm.size() - 1;
    } else if (to.dist.owner_of(g).first != comm.rank()) {
      ++moving;
    }
  }
  return comm.allreduce_value(moving, std::plus<index_t>{});
}

void check_every_pair(const std::vector<Layout>& layouts,
                      pc::Communicator& comm) {
  const od::Shape& shape = layouts.front().dist.global_shape();
  auto va = [&](const std::vector<index_t>& g) {
    return static_cast<double>(linear_of(shape, g) + 1);
  };
  auto vb = [&](const std::vector<index_t>& g) {
    return 2.0 * static_cast<double>(linear_of(shape, g)) + 0.25;
  };
  for (const auto& from : layouts) {
    const Arr a = Arr::fromfunction(from.dist, va);
    for (const auto& to : layouts) {
      const std::string pair = shape.to_string() + " " + from.name + " -> " +
                               to.name;
      const Arr moved = od::redistribute(a, to.dist);
      ASSERT_EQ(moved.local_size(), to.dist.local_count()) << pair;
      int wrong = 0;
      for (index_t l = 0; l < moved.local_size(); ++l) {
        const double want = va(to.dist.global_of_local(l));
        wrong += moved.local_view()[static_cast<std::size_t>(l)] != want;
      }
      EXPECT_EQ(wrong, 0) << pair << " on rank " << comm.rank();
      EXPECT_EQ(od::redistribution_cost(a, to.dist),
                brute_force_cost(from, to, comm))
          << pair;
      const Arr b = Arr::fromfunction(to.dist, vb);
      const auto sum = (a + b).gather();
      wrong = 0;
      for (index_t lin = 0; lin < shape.count(); ++lin) {
        const auto g = shape.delinearize(lin);
        wrong += sum[static_cast<std::size_t>(lin)] != va(g) + vb(g);
      }
      EXPECT_EQ(wrong, 0) << pair << " (a + b under kAuto)";
    }
  }
}
}  // namespace

class RedistributePairs : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, RedistributePairs,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST_P(RedistributePairs, MovesCostsAndSumsMatchSerial) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    ASSERT_EQ(od::default_conform_strategy(), od::ConformStrategy::kAuto);
    for (const index_t n : {5, 29}) check_every_pair(layouts_1d(comm, n), comm);
    check_every_pair(layouts_2d(comm), comm);
    check_every_pair(layouts_3d(comm), comm);
  });
}

TEST_P(ArraySweep, ScalarOperatorSugar) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({10}), 0);
    auto x = Arr::arange(dist, 0.0, 1.0);
    auto y = 2.0 * x + 1.0;  // broadcast ops... via map chains
    auto yf = ((x * 2.0) + 1.0).gather();
    auto zf = y.gather();
    for (index_t g = 0; g < 10; ++g) {
      EXPECT_DOUBLE_EQ(zf[static_cast<std::size_t>(g)],
                       2.0 * static_cast<double>(g) + 1.0);
      EXPECT_DOUBLE_EQ(yf[static_cast<std::size_t>(g)],
                       zf[static_cast<std::size_t>(g)]);
    }
  });
}

TEST(UfuncRegistry, BuiltinsAndExtensions) {
  pc::run(2, [](pc::Communicator& comm) {
    auto& reg = od::UfuncRegistry::builtin();
    EXPECT_TRUE(reg.has_unary("sin"));
    EXPECT_TRUE(reg.has_binary("hypot"));
    EXPECT_FALSE(reg.has_unary("frobnicate"));
    EXPECT_THROW((void)reg.unary("frobnicate"), pyhpc::InvalidArgument);

    auto dist = od::Distribution::block(comm, od::Shape({12}), 0);
    auto x = Arr::full(dist, 4.0);
    auto r = reg.apply("sqrt", x);
    EXPECT_DOUBLE_EQ(r.sum(), 24.0);

    // "a framework for creating new functions that work with distributed
    // arrays": register a custom ufunc and call it by name.
    od::UfuncRegistry mine;
    mine.register_unary("plus_one", [](double v) { return v + 1.0; });
    auto y = mine.apply("plus_one", x);
    EXPECT_DOUBLE_EQ(y.sum(), 12.0 * 5.0);
  });
}

TEST_P(ArraySweep, WhereSelectsElementwise) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({40}), 0);
    auto x = Arr::arange(dist, 0.0, 1.0);
    auto y = Arr::full(dist, 100.0);
    auto mask = od::greater(x, Arr::full(dist, 20.0));
    auto r = od::where(mask, x, y);
    auto rf = r.gather();
    for (od::index_t g = 0; g < 40; ++g) {
      const double want = g > 20 ? static_cast<double>(g) : 100.0;
      EXPECT_DOUBLE_EQ(rf[static_cast<std::size_t>(g)], want);
    }
    // Non-conformable inputs are rejected (no hidden communication).
    auto cdist = od::Distribution::cyclic(comm, od::Shape({40}), 0);
    auto z = Arr::ones(cdist);
    EXPECT_THROW((void)od::where(mask, x, z), pyhpc::ShapeError);
  });
}

TEST_P(ArraySweep, GridDistributedArraysFullPipeline) {
  const int p = GetParam();
  if (p != 4) return;  // needs a 2x2 grid
  pc::run(4, [](pc::Communicator& comm) {
    auto grid = od::Distribution::block_grid(comm, od::Shape({8, 8}), {0, 1},
                                             {2, 2});
    auto a = Arr::fromfunction(grid, [](const std::vector<od::index_t>& g) {
      return static_cast<double>(10 * g[0] + g[1]);
    });
    // Ufuncs stay local on the grid layout.
    comm.stats().reset();
    auto b = od::sqrt(od::square(a));
    EXPECT_EQ(comm.stats().p2p_bytes_sent, 0u);
    EXPECT_EQ(b.gather(), a.gather());
    // Reductions and redistribution to a row-block layout agree with the
    // serial picture.
    EXPECT_DOUBLE_EQ(a.sum(), [] {
      double s = 0.0;
      for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) s += 10 * i + j;
      }
      return s;
    }());
    auto rows = od::redistribute(
        a, od::Distribution::block(comm, od::Shape({8, 8}), 0));
    EXPECT_EQ(rows.gather(), a.gather());
  });
}
