// Allocation budgets of hot paths: copying a Map shares its index data, a
// Vector allocates only its values, an AMG V-cycle allocates the same
// number of times whatever the problem size (its vectors live in per-level
// workspace; what remains is per-message comm traffic), and so do ODIN's
// redistribution plan and move, owner lookups, fromfunction, slicing, file
// I/O and checkpoints. Counting
// replaces the global operator new, which is why these tests have their
// own binary (the counting operator new lives in alloc_hooks.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "odin/checkpoint.hpp"
#include "odin/dist_array.hpp"
#include "odin/io.hpp"
#include "odin/slicing.hpp"
#include "precond/amg.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace od = pyhpc::odin;
namespace pp = pyhpc::precond;
namespace pu = pyhpc::util;

using GO = std::int64_t;

// Allocations made by the calling thread, counted by the replacement
// operator new in alloc_hooks.cpp. Per thread, so each rank (a thread)
// counts only its own work, not its peers' or the watchdog's.
extern thread_local std::size_t t_allocations;

namespace {
gl::Map strided_map(pc::Communicator& comm, GO n) {
  std::vector<GO> gids(static_cast<std::size_t>(n));
  for (GO i = 0; i < n; ++i) gids[static_cast<std::size_t>(i)] = 3 * i + 1;
  return gl::Map::from_global_indices(comm, gids);
}
}  // namespace

TEST(Alloc, CopyingAnArbitraryMapAllocatesNothing) {
  pc::run(1, [](pc::Communicator& comm) {
    const auto map = strided_map(comm, 10000);
    const std::size_t before = t_allocations;
    const gl::Map copy = map;
    const gl::Map copy_of_copy = copy;
    EXPECT_EQ(t_allocations - before, 0u);
    EXPECT_EQ(copy_of_copy.num_local(), 10000);
    EXPECT_EQ(copy_of_copy.global_to_local(3 * 4321 + 1), 4321);
  });
}

TEST(Alloc, VectorOverAMapAllocatesOnlyItsData) {
  pc::run(1, [](pc::Communicator& comm) {
    const auto map = strided_map(comm, 10000);
    const std::size_t before = t_allocations;
    gl::Vector v(map, 2.0);
    EXPECT_EQ(t_allocations - before, 1u);
    EXPECT_EQ(v.local_size(), 10000);
  });
}

class AmgApplyAlloc : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, AmgApplyAlloc, ::testing::Values(1, 2));

TEST_P(AmgApplyAlloc, CountDoesNotGrowWithProblemSize) {
  const int nranks = GetParam();
  pc::CommConfig cfg;
  cfg.threads = 1;  // one pool lane
  std::vector<std::vector<std::size_t>> per_size;
  for (GO side : {32, 64}) {
    std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
    pc::run(nranks, cfg, [&](pc::Communicator& comm) {
      auto a = gl::laplace2d(comm, side, side);
      pp::AmgOptions opt;
      opt.max_levels = 3;
      pp::AmgPreconditioner amg(a, opt);
      EXPECT_EQ(amg.num_levels(), 3);
      gl::Vector r(a.range_map());
      r.randomize(5);
      gl::Vector z(a.domain_map());
      amg.apply(r, z);  // warm-up
      // Ranks are threads sharing mailboxes: how sends and receives
      // interleave moves a few deque-node allocations between calls, never
      // below a floor. So each rank keeps its fewest over many calls.
      std::size_t fewest = SIZE_MAX;
      for (int rep = 0; rep < 50; ++rep) {
        const std::size_t before = t_allocations;
        amg.apply(r, z);
        fewest = std::min(fewest, t_allocations - before);
      }
      per_rank[static_cast<std::size_t>(comm.rank())] = fewest;
    });
    per_size.push_back(per_rank);
  }
  EXPECT_EQ(per_size[0], per_size[1])
      << "AMG apply allocations grew from laplace2d(32,32) to (64,64)";
}

class RedistributeAlloc : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, RedistributeAlloc, ::testing::Values(1, 3));

// The plan is built from per-axis tables and the parts are sized exactly,
// so planning and moving allocate per part and per message, never per
// element.
TEST_P(RedistributeAlloc, PlanAndMoveCountDoesNotGrowWithArraySize) {
  const int nranks = GetParam();
  pc::CommConfig cfg;
  cfg.threads = 1;
  std::vector<std::vector<std::size_t>> per_size;
  for (const od::index_t n : {16 * 1024, 64 * 1024}) {
    std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
    pc::run(nranks, cfg, [&](pc::Communicator& comm) {
      const od::Shape shape{n};
      const auto cyclic = od::Distribution::cyclic(comm, shape, 0);
      const auto a =
          od::DistArray<double>::arange(od::Distribution::block(comm, shape, 0));
      // As for the V-cycle: each rank keeps its fewest over many calls.
      std::size_t fewest = SIZE_MAX;
      for (int rep = 0; rep < 20; ++rep) {
        const std::size_t before = t_allocations;
        const od::index_t cost = od::redistribution_cost(a, cyclic);
        const auto b = od::redistribute(a, cyclic);
        fewest = std::min(fewest, t_allocations - before);
        EXPECT_EQ(b.local_size(), cyclic.local_count());
        EXPECT_EQ(cost == 0, nranks == 1);
      }
      per_rank[static_cast<std::size_t>(comm.rank())] = fewest;
    });
    per_size.push_back(per_rank);
  }
  EXPECT_EQ(per_size[0], per_size[1])
      << "block -> cyclic plan and move allocations grew from 16Ki to 64Ki";
}

class GatherAlloc : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, GatherAlloc, ::testing::Values(1, 3));

// gather() and argmax() walk the local elements' global indices with one
// odometer, so they allocate per message, never per element.
TEST_P(GatherAlloc, GatherAndArgmaxCountDoesNotGrowWithArraySize) {
  const int nranks = GetParam();
  pc::CommConfig cfg;
  cfg.threads = 1;
  std::vector<std::vector<std::size_t>> per_size;
  for (const od::index_t n : {16 * 1024, 64 * 1024}) {
    std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
    pc::run(nranks, cfg, [&](pc::Communicator& comm) {
      const auto a = od::DistArray<double>::arange(
          od::Distribution::cyclic(comm, od::Shape{n}, 0));
      std::size_t fewest = SIZE_MAX;
      for (int rep = 0; rep < 10; ++rep) {
        const std::size_t before = t_allocations;
        const auto all = a.gather();
        const auto at = a.argmax();
        fewest = std::min(fewest, t_allocations - before);
        EXPECT_EQ(all.back(), static_cast<double>(n - 1));
        EXPECT_EQ(at[0], n - 1);
      }
      per_rank[static_cast<std::size_t>(comm.rank())] = fewest;
    });
    per_size.push_back(per_rank);
  }
  EXPECT_EQ(per_size[0], per_size[1])
      << "gather/argmax allocations grew from 16Ki to 64Ki elements";
}

TEST(Alloc, OwnerLookupOnAGridAllocatesNothing) {
  pc::run(4, [](pc::Communicator& comm) {
    const auto grid = od::Distribution::block_grid(
        comm, od::Shape({30, 20}), {0, 1}, {2, 2});
    std::vector<od::index_t> g(2, 0);
    od::index_t checksum = 0;
    const std::size_t before = t_allocations;
    for (g[0] = 0; g[0] < 30; ++g[0]) {
      for (g[1] = 0; g[1] < 20; ++g[1]) {
        const auto [owner, offset] = grid.owner_of(g);
        checksum += owner + offset;
      }
    }
    EXPECT_EQ(t_allocations - before, 0u);
    EXPECT_GT(checksum, 0);
  });
}

TEST(Alloc, FromFunctionCountDoesNotGrowWithArraySize) {
  pc::run(1, [](pc::Communicator& comm) {
    const std::function<double(const std::vector<od::index_t>&)> f =
        [](const std::vector<od::index_t>& g) {
          return static_cast<double>(100 * g[0] + g[1]);
        };
    std::vector<std::size_t> counts;
    for (const od::index_t rows : {64, 256}) {
      const auto dist =
          od::Distribution::block(comm, od::Shape({rows, 100}), 0);
      const std::size_t before = t_allocations;
      const auto a = od::DistArray<double>::fromfunction(dist, f);
      counts.push_back(t_allocations - before);
      EXPECT_EQ(a.local_view().back(), static_cast<double>(100 * rows - 1));
    }
    EXPECT_EQ(counts[0], counts[1])
        << "fromfunction allocations grew from 64x100 to 256x100";
  });
}

// Slicing, file I/O and checkpoints walk the local elements' global indices
// with DistArray::for_each_global, so each allocates per part, run or
// message, never per element. Each case runs `body` on a block-distributed
// arange of n elements, n = 16Ki and 64Ki, and compares each rank's fewest
// allocations over many calls (as for the V-cycle).
class OdinWalkAlloc : public ::testing::TestWithParam<int> {
 protected:
  template <class Body>
  void expect_flat(Body body, const char* what) {
    const int nranks = GetParam();
    pc::CommConfig cfg;
    cfg.threads = 1;
    std::vector<std::vector<std::size_t>> per_size;
    for (const od::index_t n : {16 * 1024, 64 * 1024}) {
      std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
      pc::run(nranks, cfg, [&](pc::Communicator& comm) {
        const auto a = od::DistArray<double>::arange(
            od::Distribution::block(comm, od::Shape{n}, 0));
        std::size_t fewest = SIZE_MAX;
        for (int rep = 0; rep < 10; ++rep) {
          const std::size_t before = t_allocations;
          body(comm, a, n);
          fewest = std::min(fewest, t_allocations - before);
        }
        per_rank[static_cast<std::size_t>(comm.rank())] = fewest;
      });
      per_size.push_back(per_rank);
    }
    EXPECT_EQ(per_size[0], per_size[1])
        << what << " allocations grew from 16Ki to 64Ki elements";
  }
};
INSTANTIATE_TEST_SUITE_P(Ranks, OdinWalkAlloc, ::testing::Values(1, 3));

TEST_P(OdinWalkAlloc, SliceCountDoesNotGrowWithArraySize) {
  expect_flat(
      [](pc::Communicator&, const od::DistArray<double>& a, od::index_t n) {
        const auto odd = od::slice1d(a, od::Slice::range(1, n, 2));
        EXPECT_EQ(odd.size(), n / 2);
      },
      "slice");
}

TEST_P(OdinWalkAlloc, FileWriteAndReadCountDoesNotGrowWithArraySize) {
  const std::string path = ::testing::TempDir() + "pyhpc_alloc_io_" +
                           std::to_string(GetParam()) + ".bin";
  expect_flat(
      [&](pc::Communicator& comm, const od::DistArray<double>& a,
          od::index_t n) {
        od::write_distributed(a, path);
        const auto back = od::read_distributed(a.dist(), path);
        EXPECT_TRUE(std::equal(a.local_view().begin(), a.local_view().end(),
                               back.local_view().begin()));
        EXPECT_EQ(back.size(), n);
        comm.barrier();  // every read done before the next write truncates
      },
      "write_distributed/read_distributed");
  std::remove(path.c_str());
}

TEST_P(OdinWalkAlloc, CheckpointCountDoesNotGrowWithArraySize) {
  expect_flat(
      [](pc::Communicator&, const od::DistArray<double>& a, od::index_t) {
        pu::CheckpointStore store;
        od::snapshot_dist_array(store, "a", 1, a);
        od::DistArray<double> b(a.dist());
        od::restore_dist_array(store, "a", 1, b);
        EXPECT_TRUE(std::equal(a.local_view().begin(), a.local_view().end(),
                               b.local_view().begin()));
      },
      "snapshot_dist_array/restore_dist_array");
}
