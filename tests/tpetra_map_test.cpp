// Tests for Map (all three construction modes), the distributed directory,
// and Import/Export plans — the distributed-object foundation.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/runner.hpp"
#include "tpetra/import_export.hpp"
#include "tpetra/map.hpp"

namespace pc = pyhpc::comm;
namespace tp = pyhpc::tpetra;

using MapT = tp::Map<>;
using LO = std::int32_t;
using GO = std::int64_t;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4, 7};
}

class MapRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, MapRankSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(MapRankSweep, UniformCoversAllIndicesExactlyOnce) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 101;
    auto map = MapT::uniform(comm, n);
    EXPECT_EQ(map.num_global(), n);
    EXPECT_TRUE(map.is_contiguous());
    // Sum of local counts equals the global count.
    const GO total = comm.allreduce_value<GO>(map.num_local(), std::plus<GO>{});
    EXPECT_EQ(total, n);
    // Near-uniform: sizes differ by at most one.
    const LO mn = comm.allreduce_value<LO>(
        map.num_local(), [](LO a, LO b) { return std::min(a, b); });
    const LO mx = comm.allreduce_value<LO>(
        map.num_local(), [](LO a, LO b) { return std::max(a, b); });
    EXPECT_LE(mx - mn, 1);
  });
}

TEST_P(MapRankSweep, LocalGlobalRoundTrip) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 57);
    for (LO l = 0; l < map.num_local(); ++l) {
      const GO g = map.local_to_global(l);
      EXPECT_TRUE(map.is_local_global_index(g));
      EXPECT_EQ(map.global_to_local(g), l);
      EXPECT_EQ(map.owner_of(g), comm.rank());
    }
  });
}

TEST_P(MapRankSweep, NonLocalIndexMapsToInvalid) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 30);
    if (comm.size() == 1) return;  // everything is local
    // Pick an index owned elsewhere.
    const GO foreign =
        (map.min_global_index() + map.num_local()) % map.num_global();
    EXPECT_EQ(map.global_to_local(foreign), tp::kInvalidLocal<LO>);
    EXPECT_FALSE(map.is_local_global_index(foreign));
  });
}

TEST_P(MapRankSweep, FromLocalSizesBuildsOffsets) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Rank r holds r+1 entries.
    auto map = MapT::from_local_sizes(comm, comm.rank() + 1);
    const int p = comm.size();
    EXPECT_EQ(map.num_global(), static_cast<GO>(p) * (p + 1) / 2);
    EXPECT_EQ(map.num_local(), comm.rank() + 1);
    EXPECT_EQ(map.min_global_index(),
              static_cast<GO>(comm.rank()) * (comm.rank() + 1) / 2);
  });
}

TEST_P(MapRankSweep, ArbitraryCyclicMap) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Cyclic distribution: rank r owns indices r, r+P, r+2P, ...
    const GO n = 40;
    std::vector<GO> mine;
    for (GO g = comm.rank(); g < n; g += comm.size()) mine.push_back(g);
    auto map = MapT::from_global_indices(comm, mine);
    EXPECT_FALSE(map.is_contiguous());
    EXPECT_EQ(map.num_global(), n);
    for (LO l = 0; l < map.num_local(); ++l) {
      EXPECT_EQ(map.local_to_global(l), mine[static_cast<std::size_t>(l)]);
      EXPECT_EQ(map.global_to_local(mine[static_cast<std::size_t>(l)]), l);
    }
  });
}

TEST(Map, DuplicateLocalIndicesRejected) {
  EXPECT_THROW(pc::run(1,
                       [](pc::Communicator& comm) {
                         std::vector<GO> gids{3, 5, 3};
                         (void)MapT::from_global_indices(comm, gids);
                       }),
               pyhpc::InvalidArgument);
}

TEST(Map, NegativeGlobalCountRejected) {
  EXPECT_THROW(pc::run(1,
                       [](pc::Communicator& comm) {
                         (void)MapT::uniform(comm, -5);
                       }),
               pyhpc::InvalidArgument);
}

TEST_P(MapRankSweep, RemoteIndexListContiguous) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = MapT::uniform(comm, 64);
    // Query every global index from every rank.
    std::vector<GO> all(64);
    std::iota(all.begin(), all.end(), 0);
    auto res = map.remote_index_list(all);
    for (GO g = 0; g < 64; ++g) {
      const auto [owner, lid] = res[static_cast<std::size_t>(g)];
      EXPECT_EQ(owner, map.owner_of(g));
      EXPECT_GE(lid, 0);
    }
  });
}

TEST_P(MapRankSweep, RemoteIndexListArbitrary) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 35;
    std::vector<GO> mine;
    for (GO g = comm.rank(); g < n; g += comm.size()) mine.push_back(g);
    auto map = MapT::from_global_indices(comm, mine);
    std::vector<GO> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    auto res = map.remote_index_list(all);  // collective
    for (GO g = 0; g < n; ++g) {
      const auto [owner, lid] = res[static_cast<std::size_t>(g)];
      EXPECT_EQ(owner, static_cast<int>(g % comm.size()));
      EXPECT_EQ(lid, static_cast<LO>(g / comm.size()));
    }
  });
}

TEST_P(MapRankSweep, RemoteIndexListUnownedGivesMinusOne) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Map over even indices only; odd queries resolve to no owner.
    const GO n = 20;
    std::vector<GO> mine;
    for (GO g = comm.rank(); g < n / 2; g += comm.size()) {
      mine.push_back(2 * g);
    }
    auto map = MapT::from_global_indices(comm, mine);
    std::vector<GO> queries{1, 3, 5};
    auto res = map.remote_index_list(queries);
    for (const auto& [owner, lid] : res) {
      EXPECT_EQ(owner, -1);
      (void)lid;
    }
  });
}

TEST_P(MapRankSweep, SameAsAndCompatible) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = MapT::uniform(comm, 48);
    auto b = MapT::uniform(comm, 48);
    auto c = MapT::uniform(comm, 47);
    EXPECT_TRUE(a.is_same_as(b));
    EXPECT_TRUE(a.is_compatible(b));
    EXPECT_FALSE(a.is_same_as(c));
    EXPECT_FALSE(a.is_compatible(c));
    // A cyclic map with identical local counts is compatible but not same.
    if (48 % comm.size() == 0) {
      std::vector<GO> mine;
      for (GO g = comm.rank(); g < 48; g += comm.size()) mine.push_back(g);
      auto cyc = MapT::from_global_indices(comm, mine);
      EXPECT_TRUE(a.is_compatible(cyc));
      if (comm.size() > 1) {
        EXPECT_FALSE(a.is_same_as(cyc));
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Import / Export
// ---------------------------------------------------------------------------

class ImportRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ImportRankSweep,
                         ::testing::ValuesIn(kRankCounts));

TEST_P(ImportRankSweep, GhostFillHaloOneDeep) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 24;
    auto owned = MapT::uniform(comm, n);
    // Target: owned plus one halo cell each side (periodic).
    std::vector<GO> tgids = owned.my_global_indices();
    if (owned.num_local() > 0) {
      tgids.push_back((owned.min_global_index() + n - 1) % n);
      if (owned.max_global_index_plus_one() % n !=
          (owned.min_global_index() + n - 1) % n) {
        tgids.push_back(owned.max_global_index_plus_one() % n);
      }
    }
    // Dedup (single-rank case folds halo onto owned range).
    std::sort(tgids.begin(), tgids.end());
    tgids.erase(std::unique(tgids.begin(), tgids.end()), tgids.end());
    auto target = MapT::from_global_indices(comm, tgids);

    tp::Import<> plan(owned, target);
    // Source values: v[g] = 10*g + 1.
    std::vector<double> src(static_cast<std::size_t>(owned.num_local()));
    for (LO i = 0; i < owned.num_local(); ++i) {
      src[static_cast<std::size_t>(i)] =
          10.0 * static_cast<double>(owned.local_to_global(i)) + 1.0;
    }
    std::vector<double> dst(static_cast<std::size_t>(target.num_local()), -7.0);
    plan.apply<double>(src, dst);
    for (LO i = 0; i < target.num_local(); ++i) {
      EXPECT_EQ(dst[static_cast<std::size_t>(i)],
                10.0 * static_cast<double>(target.local_to_global(i)) + 1.0);
    }
  });
}

TEST_P(ImportRankSweep, PlanCountsAreConsistent) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 30;
    auto owned = MapT::uniform(comm, n);
    // Full replication target: every rank wants everything.
    std::vector<GO> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    auto target = MapT::from_global_indices(comm, all);
    tp::Import<> plan(owned, target);
    EXPECT_EQ(plan.num_permutes(), static_cast<std::size_t>(owned.num_local()));
    EXPECT_EQ(plan.num_remote(),
              static_cast<std::size_t>(n - owned.num_local()));
    // Everyone requests my entries: P-1 ranks x my local count.
    EXPECT_EQ(plan.num_export(),
              static_cast<std::size_t>(owned.num_local()) *
                  static_cast<std::size_t>(comm.size() - 1));
  });
}

TEST_P(ImportRankSweep, ExportAddAssemblesOverlaps) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 16;
    auto owned = MapT::uniform(comm, n);
    // Every rank contributes 1.0 to every global index.
    std::vector<GO> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    auto overlap = MapT::from_global_indices(comm, all);
    tp::Export<> plan(overlap, owned);
    std::vector<double> contrib(static_cast<std::size_t>(n), 1.0);
    std::vector<double> assembled(static_cast<std::size_t>(owned.num_local()),
                                  0.0);
    plan.apply<double>(contrib, assembled, tp::CombineMode::kAdd);
    for (double v : assembled) {
      EXPECT_EQ(v, static_cast<double>(comm.size()));
    }
  });
}

TEST_P(ImportRankSweep, ExportInsertOverwrites) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 12;
    auto owned = MapT::uniform(comm, n);
    // Each rank holds only its own indices (no overlap): export == copy.
    auto overlap = MapT::from_global_indices(
        comm, owned.my_global_indices());
    tp::Export<> plan(overlap, owned);
    std::vector<double> src(static_cast<std::size_t>(owned.num_local()));
    for (LO i = 0; i < owned.num_local(); ++i) {
      src[static_cast<std::size_t>(i)] =
          static_cast<double>(owned.local_to_global(i));
    }
    std::vector<double> dst(static_cast<std::size_t>(owned.num_local()), -1.0);
    plan.apply<double>(src, dst, tp::CombineMode::kInsert);
    for (LO i = 0; i < owned.num_local(); ++i) {
      EXPECT_EQ(dst[static_cast<std::size_t>(i)],
                static_cast<double>(owned.local_to_global(i)));
    }
  });
}

TEST(Import, MissingOwnerIsAnError) {
  EXPECT_THROW(
      pc::run(2,
              [](pc::Communicator& comm) {
                // Source covers [0,8); target references gid 9 which nobody
                // owns -> plan construction must fail on the requesting
                // rank (and abort propagates to the other).
                std::vector<GO> src_gids;
                for (GO g = 4 * comm.rank(); g < 4 * (comm.rank() + 1); ++g) {
                  src_gids.push_back(g);
                }
                auto src = MapT::from_global_indices(comm, src_gids);
                std::vector<GO> tgt_gids{0, 9};
                auto tgt = MapT::from_global_indices(comm, tgt_gids);
                tp::Import<> plan(src, tgt);
              }),
      pyhpc::Error);
}
