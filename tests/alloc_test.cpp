// Allocation budgets of hot paths: copying a Map shares its index data, a
// Vector allocates only its values, and an AMG V-cycle allocates the same
// number of times whatever the problem size (its vectors live in per-level
// workspace; what remains is per-message comm traffic). Counting replaces
// the global operator new, which is why these tests have their own binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "precond/amg.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace pp = pyhpc::precond;

using GO = std::int64_t;

namespace {
// Allocations made by the calling thread. Per thread, so each rank (a
// thread) counts only its own work, not its peers' or the watchdog's.
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
