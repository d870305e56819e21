// Transport-tier benchmarks (PR 7): what the zero-copy envelopes and the
// split-phase overlap paths buy.
//
//  - BM_TransportCopyVsMove: the same 8 MiB p2p volume sent as eager
//    copies vs moved vectors; the bytes_copied / zero_copy_bytes counters
//    carry the claim (copied path books every byte, moved path books
//    none), wall-clock carries the memcpy saved.
//  - BM_SpmvOverlap: distributed 1D Laplacian SpMV at p = 2/4/8 through
//    the split-phase Import (halo packs moved out first, interior rows on
//    the TaskPool while halos travel, then a blocking receive per
//    neighbour and the boundary rows). Compare against BM_SpmvThreads
//    (single-rank) and PR5 reports.
//  - BM_FindiffHaloOverlap: shifted_diff at p = 2/4/8: boundary send,
//    parallel interior stencil, then the halo receive. Compare against
//    BM_FindiffHaloExchange in bench_e3_findiff.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "comm/runner.hpp"
#include "odin/slicing.hpp"
#include "odin/ufunc.hpp"
#include "tpetra/crs_matrix.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace tp = pyhpc::tpetra;

using Arr = od::DistArray<double>;
using MapT = tp::Map<>;
using MatD = tp::CrsMatrix<double>;
using VecD = tp::Vector<double>;
using LO = std::int32_t;
using GO = std::int64_t;

namespace {

void BM_TransportCopyVsMove(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool zero_copy = state.range(1) != 0;
  std::uint64_t copied = 0, moved_bytes = 0;
  for (auto _ : state) {
    auto stats = pc::run_with_stats(
        2, [n, zero_copy](pc::Communicator& comm) {
          if (comm.rank() == 0) {
            std::vector<double> payload(n, 1.5);
            if (zero_copy) {
              comm.send(std::move(payload), 1, 7);
            } else {
              comm.send(std::span<const double>(payload), 1, 7);
            }
          } else {
            auto got = comm.recv_vector<double>(0, 7);
            benchmark::DoNotOptimize(got.data());
          }
        });
    copied += stats.bytes_copied;
    moved_bytes += stats.zero_copy_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
  state.counters["bytes_copied"] =
      static_cast<double>(copied) / static_cast<double>(state.iterations());
  state.counters["zero_copy_bytes"] =
      static_cast<double>(moved_bytes) /
      static_cast<double>(state.iterations());
}

void BM_SpmvOverlap(benchmark::State& state) {
  const GO n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  std::uint64_t copied = 0, zc = 0;
  std::uint64_t reps = 0;
  for (auto _ : state) {
    auto stats = pc::run_with_stats(ranks, [n](pc::Communicator& comm) {
      auto map = MapT::uniform(comm, n);
      MatD a(map);
      for (LO i = 0; i < map.num_local(); ++i) {
        const GO g = map.local_to_global(i);
        std::vector<GO> cols;
        std::vector<double> vals;
        if (g > 0) {
          cols.push_back(g - 1);
          vals.push_back(-1.0);
        }
        cols.push_back(g);
        vals.push_back(2.0);
        if (g + 1 < n) {
          cols.push_back(g + 1);
          vals.push_back(-1.0);
        }
        a.insert_global_values(g, cols, vals);
      }
      a.fill_complete();
      VecD x(map, 1.0), y(map);
      comm.stats().reset();
      for (int rep = 0; rep < 10; ++rep) {
        a.apply(x, y);
        benchmark::DoNotOptimize(y.local_view().data());
      }
    });
    copied += stats.bytes_copied;
    zc += stats.zero_copy_bytes;
    reps += 10;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reps) * n);
  state.counters["ranks"] = ranks;
  state.counters["bytes_copied"] =
      static_cast<double>(copied) / static_cast<double>(state.iterations());
  state.counters["zero_copy_bytes"] =
      static_cast<double>(zc) / static_cast<double>(state.iterations());
}

void BM_FindiffHaloOverlap(benchmark::State& state) {
  const od::index_t n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  std::uint64_t copied = 0, zc = 0;
  for (auto _ : state) {
    auto stats = pc::run_with_stats(ranks, [n](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
      auto x = Arr::linspace(dist, 1.0, 2.0 * M_PI);
      auto y = od::sin(x);
      const double dx = x.get_global({1}) - x.get_global({0});
      comm.stats().reset();
      auto dy = od::shifted_diff(y);
      auto dydx = dy / dx;
      benchmark::DoNotOptimize(dydx.local_view().data());
    });
    copied += stats.bytes_copied;
    zc += stats.zero_copy_bytes;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["ranks"] = ranks;
  state.counters["bytes_copied"] =
      static_cast<double>(copied) / static_cast<double>(state.iterations());
  state.counters["zero_copy_bytes"] =
      static_cast<double>(zc) / static_cast<double>(state.iterations());
}

}  // namespace

BENCHMARK(BM_TransportCopyVsMove)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});
BENCHMARK(BM_SpmvOverlap)
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4})
    ->Args({1 << 20, 8});
BENCHMARK(BM_FindiffHaloOverlap)
    ->Args({1 << 16, 2})
    ->Args({1 << 16, 4})
    ->Args({1 << 18, 8})
    ->Args({1 << 21, 4});

BENCHMARK_MAIN();
