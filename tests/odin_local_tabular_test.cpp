// Tests for ODIN local mode (odin.local analogue), tabular data +
// map-reduce, distributed IO, the Tpetra interop, and the Fig-1
// driver/worker mode.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "comm/runner.hpp"
#include "odin/interop.hpp"
#include "odin/io.hpp"
#include "odin/local.hpp"
#include "odin/service.hpp"
#include "odin/tabular.hpp"
#include "odin/ufunc.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
using od::index_t;
using Arr = od::DistArray<double>;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4};
}

// ---------------------------------------------------------------------------
// Local mode
// ---------------------------------------------------------------------------

class LocalSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, LocalSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(LocalSweep, LocalApplySeesOwnSegmentAndContext) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({20}), 0);
    Arr a = Arr::zeros(dist);
    od::local_apply(a, [](const od::LocalContext& ctx, std::span<double> seg) {
      EXPECT_EQ(ctx.comm->rank(), ctx.rank);
      for (std::size_t i = 0; i < seg.size(); ++i) {
        // Write the global index through the context mapping.
        seg[i] = static_cast<double>(
            ctx.global_of(static_cast<index_t>(i))[0]);
      }
    });
    auto f = a.gather();
    for (index_t g = 0; g < 20; ++g) {
      EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(g)],
                       static_cast<double>(g));
    }
  });
}

TEST_P(LocalSweep, PaperLocalHypotViaRegistry) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // @odin.local def hypot(x, y): return odin.sqrt(x**2 + y**2)
    // -> registered once, callable from the global level by name.
    od::LocalRegistry::instance().register_function(
        "hypot",
        [](const od::LocalContext&,
           const std::vector<std::span<const double>>& in,
           std::span<double> out) {
          for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = std::hypot(in[0][i], in[1][i]);
          }
        });
    auto dist = od::Distribution::block(comm, od::Shape({8, 8}), 0);
    auto x = Arr::random(dist, 1);
    auto y = Arr::random(dist, 2);
    auto h = od::call_local("hypot", x, y);
    auto want = od::hypot(x, y);
    auto hf = h.gather();
    auto wf = want.gather();
    for (std::size_t i = 0; i < hf.size(); ++i) {
      EXPECT_DOUBLE_EQ(hf[i], wf[i]);
    }
  });
}

TEST_P(LocalSweep, LocalFunctionMayCommunicateDirectly) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // "a local function could perform any arbitrary operation, including
    // communication with another node": ring-shift each rank's first
    // element via direct worker-to-worker p2p.
    auto dist = od::Distribution::block(comm, od::Shape({16}), 0);
    Arr a = Arr::fromfunction(dist, [](const std::vector<index_t>& g) {
      return static_cast<double>(g[0]);
    });
    std::vector<double> got(static_cast<std::size_t>(comm.size()), -1.0);
    od::local_apply(a, [&](const od::LocalContext& ctx,
                           std::span<double> seg) {
      const double mine = seg.empty() ? -1.0 : seg[0];
      const int next = (ctx.rank + 1) % ctx.num_ranks;
      const int prev = (ctx.rank + ctx.num_ranks - 1) % ctx.num_ranks;
      ctx.comm->send_value(mine, next, 77);
      const double from_prev = ctx.comm->recv_value<double>(prev, 77);
      got[static_cast<std::size_t>(ctx.rank)] = from_prev;
    });
    // Rank r received rank r-1's first global index.
    const int r = comm.rank();
    const int prev = (r + comm.size() - 1) % comm.size();
    const double expected = static_cast<double>(
        a.dist().axis_spec(0).offsets[static_cast<std::size_t>(prev)]);
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)], expected);
  });
}

TEST(LocalRegistry, MissingFunctionThrows) {
  od::LocalRegistry::instance().clear();
  EXPECT_FALSE(od::LocalRegistry::instance().has("nope"));
  EXPECT_THROW((void)od::LocalRegistry::instance().get("nope"),
               pyhpc::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Tabular + map-reduce
// ---------------------------------------------------------------------------

namespace {
// A "structured dtype" record (§III.I).
struct Sale {
  std::int64_t store;
  std::int64_t item;
  double amount;
};
}  // namespace

class TabularSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, TabularSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(TabularSweep, MapReduceGroupBySumMatchesSerial) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Global dataset: 120 sales, store = i % 7, amount = i. Each rank holds
    // a contiguous chunk.
    const std::int64_t total = 120;
    const int p = comm.size();
    const std::int64_t chunk = total / p + (comm.rank() < total % p ? 1 : 0);
    std::int64_t start = 0;
    for (int q = 0; q < comm.rank(); ++q) {
      start += total / p + (q < total % p ? 1 : 0);
    }
    std::vector<Sale> rows;
    for (std::int64_t i = start; i < start + chunk; ++i) {
      rows.push_back(Sale{i % 7, i % 3, static_cast<double>(i)});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    EXPECT_EQ(table.global_size(), total);

    auto grouped = od::map_reduce<std::int64_t, double>(
        table,
        [](const Sale& s) { return std::pair<std::int64_t, double>(s.store, s.amount); },
        [](double acc, double v) { return acc + v; });

    // Serial reference.
    std::map<std::int64_t, double> want;
    for (std::int64_t i = 0; i < total; ++i) {
      want[i % 7] += static_cast<double>(i);
    }
    // Merge every rank's owned groups.
    struct KV {
      std::int64_t k;
      double v;
    };
    std::vector<KV> mine;
    for (const auto& [k, v] : grouped) mine.push_back(KV{k, v});
    auto chunks = comm.allgatherv(std::span<const KV>(mine));
    std::map<std::int64_t, double> got;
    for (const auto& c : chunks) {
      for (const auto& kv : c) {
        EXPECT_EQ(got.count(kv.k), 0u) << "key owned by two reducers";
        got[kv.k] = kv.v;
      }
    }
    EXPECT_EQ(got.size(), want.size());
    for (const auto& [k, v] : want) {
      EXPECT_DOUBLE_EQ(got[k], v) << "store " << k;
    }
  });
}

TEST_P(TabularSweep, FilterAndMapAreLocal) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    std::vector<Sale> rows;
    for (int i = 0; i < 10; ++i) {
      rows.push_back(Sale{comm.rank(), i, static_cast<double>(i)});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    comm.stats().reset();
    auto big = table.filter([](const Sale& s) { return s.amount >= 5.0; });
    auto doubled = big.map<double>([](const Sale& s) { return 2.0 * s.amount; });
    EXPECT_EQ(comm.stats().p2p_bytes_sent, 0u);
    EXPECT_EQ(doubled.local_rows().size(), 5u);
    // global_size is collective (allreduce) but moves no row data.
    EXPECT_EQ(big.global_size(), 5 * comm.size());
  });
}

TEST_P(TabularSweep, RebalanceEvensSkewedTables) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    if (comm.size() == 1) return;
    // All rows start on rank 0.
    std::vector<Sale> rows;
    if (comm.rank() == 0) {
      for (int i = 0; i < 40; ++i) rows.push_back(Sale{0, i, 1.0});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    auto balanced = table.rebalance();
    EXPECT_EQ(balanced.global_size(), 40);
    const auto local = static_cast<std::int64_t>(balanced.local_rows().size());
    const std::int64_t mx = comm.allreduce_value(
        local, [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
    const std::int64_t mn = comm.allreduce_value(
        local, [](std::int64_t a, std::int64_t b) { return std::min(a, b); });
    EXPECT_LE(mx - mn, 1);
  });
}

// ---------------------------------------------------------------------------
// Map-reduce properties (the edges the group-by scenario leans on)
// ---------------------------------------------------------------------------

TEST_P(TabularSweep, MapReduceOnEmptyTableYieldsNoGroups) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    od::DistTable<Sale> table(comm, {});
    EXPECT_EQ(table.global_size(), 0);
    auto grouped = od::map_reduce<std::int64_t, double>(
        table,
        [](const Sale& s) {
          return std::pair<std::int64_t, double>(s.store, s.amount);
        },
        [](double acc, double v) { return acc + v; });
    EXPECT_TRUE(grouped.empty());
  });
}

TEST_P(TabularSweep, MapReduceSingleGroupFoldsEveryRowOntoOneReducer) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Every row shares one key, so exactly one rank owns the one group and
    // its aggregate covers all p * 6 rows.
    std::vector<Sale> rows;
    for (int i = 0; i < 6; ++i) {
      rows.push_back(Sale{7, i, 1.5});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    auto grouped = od::map_reduce<std::int64_t, double>(
        table,
        [](const Sale& s) {
          return std::pair<std::int64_t, double>(s.store, s.amount);
        },
        [](double acc, double v) { return acc + v; });
    struct KV {
      std::int64_t k;
      double v;
    };
    std::vector<KV> mine;
    for (const auto& [k, v] : grouped) mine.push_back(KV{k, v});
    auto chunks = comm.allgatherv(std::span<const KV>(mine));
    int owners = 0;
    double total = 0.0;
    for (const auto& c : chunks) {
      for (const auto& kv : c) {
        ++owners;
        EXPECT_EQ(kv.k, 7);
        total = kv.v;
      }
    }
    EXPECT_EQ(owners, 1);
    EXPECT_DOUBLE_EQ(total, 1.5 * 6 * comm.size());
  });
}

TEST_P(TabularSweep, MapReduceAllDistinctKeysPreservesEveryRow) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Globally unique keys: no fold ever happens, every value must come
    // through untouched (and key-sorted per owner).
    std::vector<Sale> rows;
    for (int i = 0; i < 5; ++i) {
      const std::int64_t key = comm.rank() * 5 + i;
      rows.push_back(Sale{key, i, static_cast<double>(100 + key)});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    auto grouped = od::map_reduce<std::int64_t, double>(
        table,
        [](const Sale& s) {
          return std::pair<std::int64_t, double>(s.store, s.amount);
        },
        [](double acc, double v) { return acc + v; });
    EXPECT_TRUE(std::is_sorted(
        grouped.begin(), grouped.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
    struct KV {
      std::int64_t k;
      double v;
    };
    std::vector<KV> mine;
    for (const auto& [k, v] : grouped) mine.push_back(KV{k, v});
    auto chunks = comm.allgatherv(std::span<const KV>(mine));
    std::map<std::int64_t, double> got;
    for (const auto& c : chunks) {
      for (const auto& kv : c) {
        EXPECT_EQ(got.count(kv.k), 0u);
        got[kv.k] = kv.v;
      }
    }
    const std::int64_t total = 5 * comm.size();
    EXPECT_EQ(got.size(), static_cast<std::size_t>(total));
    for (std::int64_t k = 0; k < total; ++k) {
      EXPECT_DOUBLE_EQ(got[k], static_cast<double>(100 + k)) << "key " << k;
    }
  });
}

TEST_P(TabularSweep, MapReduceMergesDuplicateKeysAcrossRanks) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // The same two keys appear on every rank, so the shuffle must merge
    // per-rank combiner outputs — count and sum see every contribution
    // exactly once (a non-commutative-safe reducer would double-fold).
    struct CountSum {
      std::int64_t count;
      double sum;
    };
    std::vector<Sale> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back(Sale{i % 2, i, static_cast<double>(comm.rank() + 1)});
    }
    od::DistTable<Sale> table(comm, std::move(rows));
    auto grouped = od::map_reduce<std::int64_t, CountSum>(
        table,
        [](const Sale& s) {
          return std::pair<std::int64_t, CountSum>(s.store,
                                                   CountSum{1, s.amount});
        },
        [](CountSum acc, const CountSum& v) {
          return CountSum{acc.count + v.count, acc.sum + v.sum};
        });
    struct KV {
      std::int64_t k;
      CountSum v;
    };
    std::vector<KV> mine;
    for (const auto& [k, v] : grouped) mine.push_back(KV{k, v});
    auto chunks = comm.allgatherv(std::span<const KV>(mine));
    const int p = comm.size();
    // Sum over ranks r of (r+1), twice per key (two rows per key per rank).
    const double want_sum = static_cast<double>(p) * (p + 1);
    int seen = 0;
    for (const auto& c : chunks) {
      for (const auto& kv : c) {
        ++seen;
        EXPECT_EQ(kv.v.count, 2 * p) << "key " << kv.k;
        EXPECT_DOUBLE_EQ(kv.v.sum, want_sum) << "key " << kv.k;
      }
    }
    EXPECT_EQ(seen, 2);
  });
}

// ---------------------------------------------------------------------------
// Distributed IO
// ---------------------------------------------------------------------------

class IoSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, IoSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(IoSweep, WriteReadRoundTripSameDistribution) {
  const int p = GetParam();
  const std::string path = "/tmp/pyhpc_odin_io_" + std::to_string(p) + ".bin";
  pc::run(p, [&](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({40}), 0);
    auto a = Arr::arange(dist, 0.5, 0.25);
    od::write_distributed(a, path);
    auto shape = od::read_stored_shape(comm, path);
    EXPECT_EQ(shape, a.shape());
    auto back = od::read_distributed(dist, path);
    EXPECT_EQ(back.gather(), a.gather());
  });
  std::remove(path.c_str());
}

TEST_P(IoSweep, ReadUnderDifferentDistribution) {
  const int p = GetParam();
  const std::string path = "/tmp/pyhpc_odin_io2_" + std::to_string(p) + ".bin";
  pc::run(p, [&](pc::Communicator& comm) {
    // Write blocked, read cyclic: the file is the interchange format.
    auto bdist = od::Distribution::block(comm, od::Shape({33}), 0);
    auto a = Arr::arange(bdist, 0.0, 1.0);
    od::write_distributed(a, path);
    auto cdist = od::Distribution::cyclic(comm, od::Shape({33}), 0);
    auto back = od::read_distributed(cdist, path);
    EXPECT_EQ(back.gather(), a.gather());
  });
  std::remove(path.c_str());
}

TEST_P(IoSweep, TwoDimensionalRoundTrip) {
  const int p = GetParam();
  const std::string path = "/tmp/pyhpc_odin_io3_" + std::to_string(p) + ".bin";
  pc::run(p, [&](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({7, 5}), 0);
    auto a = Arr::random(dist, 9);
    od::write_distributed(a, path);
    auto back = od::read_distributed(dist, path);
    EXPECT_EQ(back.gather(), a.gather());
  });
  std::remove(path.c_str());
}

TEST(Io, RewritingAPathNeverTruncatesUnderAReader) {
  // Rank 0 owns one element and ranks 1-2 own 2e6 each, so rank 0 reaches
  // the next write of the path long before the others finish reading the
  // last one. Its truncating open must wait for them: truncating early
  // made them read zeros (the pre-size write re-extends the file, so the
  // read is not even short).
  const std::string path = "/tmp/pyhpc_odin_io5.bin";
  pc::run(3, [&](pc::Communicator& comm) {
    const std::vector<index_t> sizes{1, 2000000, 2000000};
    auto dist =
        od::Distribution::explicit_block(comm, od::Shape({4000001}), 0, sizes);
    for (int it = 0; it < 10; ++it) {
      const double v = 1.0 + it;
      od::write_distributed(Arr::full(dist, v), path);
      const auto back = od::read_distributed(dist, path);
      std::size_t wrong = 0;
      for (double x : back.local_view()) wrong += (x != v);
      EXPECT_EQ(wrong, 0u) << "rank " << comm.rank() << " iteration " << it;
    }
  });
  std::remove(path.c_str());
}

TEST(Io, ShapeMismatchRejected) {
  const std::string path = "/tmp/pyhpc_odin_io4.bin";
  pc::run(2, [&](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({12}), 0);
    od::write_distributed(Arr::ones(dist), path);
    auto wrong = od::Distribution::block(comm, od::Shape({13}), 0);
    EXPECT_THROW((void)od::read_distributed(wrong, path), pyhpc::ShapeError);
  });
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tpetra interop (§III.E)
// ---------------------------------------------------------------------------

class InteropSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, InteropSweep,
                         ::testing::ValuesIn(kRankCounts));

TEST_P(InteropSweep, BlockArrayToVectorIsLocalCopy) {
  const int p = GetParam();
  auto stats = pc::run_with_stats(p, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({24}), 0);
    auto a = Arr::arange(dist, 0.0, 1.0);
    comm.stats().reset();
    auto v = od::to_tpetra(a);
    EXPECT_EQ(comm.stats().p2p_bytes_sent, 0u);
    EXPECT_EQ(v.global_size(), 24);
    // Values land at matching global indices.
    for (std::int32_t i = 0; i < v.local_size(); ++i) {
      EXPECT_DOUBLE_EQ(v[i], static_cast<double>(v.map().local_to_global(i)));
    }
  });
  (void)stats;
}

TEST_P(InteropSweep, RoundTripThroughVector) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({19}), 0);
    auto a = Arr::random(dist, 4);
    auto v = od::to_tpetra(a);
    auto back = od::from_tpetra(v);
    EXPECT_EQ(back.gather(), a.gather());
  });
}

TEST_P(InteropSweep, CyclicArrayRedistributesToVector) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto cdist = od::Distribution::cyclic(comm, od::Shape({21}), 0);
    auto a = Arr::arange(cdist, 0.0, 1.0);
    auto v = od::to_tpetra(a);  // redistributes internally
    for (std::int32_t i = 0; i < v.local_size(); ++i) {
      EXPECT_DOUBLE_EQ(v[i], static_cast<double>(v.map().local_to_global(i)));
    }
  });
}

TEST(Interop, TwoDimensionalArrayRejected) {
  pc::run(2, [](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({4, 4}), 0);
    auto a = Arr::ones(dist);
    EXPECT_THROW((void)od::to_tpetra(a), pyhpc::ShapeError);
  });
}

// ---------------------------------------------------------------------------
// Fig-1 driver/worker mode
// ---------------------------------------------------------------------------

namespace {

// A 1 driver + (P-1) worker service; `batch_messages = 1` ships every op
// as its own payload, the paper's unbatched dispatch.
od::ServiceOptions per_op_dispatch() {
  od::ServiceOptions opts;
  opts.batch_messages = 1;
  return opts;
}

}  // namespace

class DriverSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Workers, DriverSweep, ::testing::Values(2, 3, 5));

TEST_P(DriverSweep, DriverComputesThroughControlMessages) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    od::ServiceContext svc(comm, per_op_dispatch());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    const std::int64_t n = 1000;
    const int x = s.create_full(n, 3.0);
    const int y = s.create_full(n, 4.0);
    const int h = s.binary("hypot", x, y);
    EXPECT_NEAR(s.reduce_sum(h), 5.0 * static_cast<double>(n), 1e-9);
    const int r = s.unary("sqrt", x);
    EXPECT_NEAR(s.reduce_sum(r), std::sqrt(3.0) * static_cast<double>(n),
                1e-9);
    const int z = s.axpy(2.0, x, y);  // 2*3 + 4 = 10
    EXPECT_NEAR(s.reduce_sum(z), 10.0 * static_cast<double>(n), 1e-9);
    s.free_array(h);
    s.close();
    svc.shutdown();
  });
}

TEST_P(DriverSweep, ControlMessagesStayTensOfBytes) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    od::ServiceContext svc(comm, per_op_dispatch());
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    const auto& driver = svc.driver();
    // The paper: "the only communication from the top-level node is a
    // short message, at most tens of bytes" — one 48-byte ControlMessage
    // per worker, whatever n is.
    static_assert(sizeof(od::ControlMessage) == 48);
    for (std::int64_t n : {std::int64_t{100}, std::int64_t{100000},
                           std::int64_t{1000000}}) {
      const auto before = driver.control_bytes_sent();
      (void)s.create_full(n, 1.0);
      const auto per_worker =
          (driver.control_bytes_sent() - before) /
          static_cast<std::uint64_t>(svc.num_workers());
      EXPECT_EQ(per_worker, sizeof(od::ControlMessage)) << "n = " << n;
    }
    s.close();
    svc.shutdown();
  });
}

TEST_P(DriverSweep, BatchingCoalescesPayloads) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    od::ServiceOptions opts;
    opts.batch_window = std::chrono::seconds(10);  // only flush() ships
    od::ServiceContext svc(comm, opts);
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    const int a = s.create_full(50, 1.0);
    s.flush();
    const auto payloads_before = svc.driver().payloads_sent();
    int cur = a;
    for (int i = 0; i < 10; ++i) cur = s.unary("sqrt", cur);
    s.flush();
    // 10 messages, one payload per worker.
    EXPECT_EQ(svc.driver().payloads_sent() - payloads_before,
              static_cast<std::uint64_t>(svc.num_workers()));
    EXPECT_NEAR(s.reduce_sum(cur), 50.0, 1e-9);
    s.close();
    svc.shutdown();
  });
}

TEST(Driver, RequiresAWorker) {
  pc::run(1, [](pc::Communicator& comm) {
    EXPECT_THROW(od::ServiceContext svc(comm, od::ServiceOptions{}),
                 pyhpc::InvalidArgument);
  });
}
