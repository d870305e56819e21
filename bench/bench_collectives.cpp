// Collective algorithm comparison: the root-funneled flat reference
// schedules (CollectiveAlgo::kLinear) against the scalable schedules kAuto
// resolves to (Rabenseifner allreduce, ring allgather) at 8 ranks with
// large payloads, plus the linear alltoallv on its own.
//
// The headline counters are rank 0's view, because rank 0 is where the
// linear schedules concentrate traffic:
//  - allreduce: root received bytes drop 4x at p=8 ((p-1)n flat reduce
//    funnel vs ~1.75n reduce-scatter + allgather);
//  - allgather: root *received* bytes are information-bound at (p-1)n for
//    any algorithm, but the gather+broadcast reference makes rank 0
//    retransmit the whole p*n concatenation to every rank, so root sent
//    bytes drop 8x and root total traffic 4.5x;
//  - alltoallv: already balanced in bytes, and its one (linear, zero-copy)
//    schedule is the reference. A pairwise-exchange schedule measured no
//    faster at this size (EXPERIMENTS.md) and was removed.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/runner.hpp"

namespace pc = pyhpc::comm;
using pc::CollectiveAlgo;

namespace {

constexpr int kRanks = 8;
constexpr std::size_t kElems = 1 << 16;  // 512 KiB of doubles per rank

struct RootStats {
  std::uint64_t recv_bytes = 0;
  std::uint64_t sent_bytes = 0;
};

void report(benchmark::State& state, const RootStats& root) {
  state.counters["root_coll_bytes_received"] =
      static_cast<double>(root.recv_bytes);
  state.counters["root_coll_bytes_sent"] = static_cast<double>(root.sent_bytes);
  state.counters["root_coll_bytes_total"] =
      static_cast<double>(root.recv_bytes + root.sent_bytes);
}

RootStats run_allreduce(CollectiveAlgo algo) {
  RootStats root;
  pc::run(kRanks, [&root, algo](pc::Communicator& comm) {
    std::vector<double> in(kElems, static_cast<double>(comm.rank() + 1));
    std::vector<double> out(kElems);
    comm.stats().reset();
    comm.allreduce(std::span<const double>(in), std::span<double>(out),
                   std::plus<double>{}, algo);
    benchmark::DoNotOptimize(out.data());
    if (comm.rank() == 0) {
      root.recv_bytes = comm.stats().coll_bytes_received;
      root.sent_bytes = comm.stats().coll_bytes_sent;
    }
  });
  return root;
}

RootStats run_allgather(CollectiveAlgo algo) {
  RootStats root;
  pc::run(kRanks, [&root, algo](pc::Communicator& comm) {
    std::vector<double> mine(kElems, static_cast<double>(comm.rank()));
    comm.stats().reset();
    auto all = comm.allgather(std::span<const double>(mine), algo);
    benchmark::DoNotOptimize(all.data());
    if (comm.rank() == 0) {
      root.recv_bytes = comm.stats().coll_bytes_received;
      root.sent_bytes = comm.stats().coll_bytes_sent;
    }
  });
  return root;
}

RootStats run_alltoallv() {
  RootStats root;
  pc::run(kRanks, [&root](pc::Communicator& comm) {
    std::vector<std::vector<double>> parts(kRanks);
    for (int dst = 0; dst < kRanks; ++dst) {
      parts[static_cast<std::size_t>(dst)].assign(
          kElems / kRanks, static_cast<double>(comm.rank() * kRanks + dst));
    }
    comm.stats().reset();
    auto got = comm.alltoallv(std::move(parts));
    benchmark::DoNotOptimize(got.data());
    if (comm.rank() == 0) {
      root.recv_bytes = comm.stats().coll_bytes_received;
      root.sent_bytes = comm.stats().coll_bytes_sent;
    }
  });
  return root;
}

void BM_AllreduceLinearBaseline(benchmark::State& state) {
  RootStats root;
  for (auto _ : state) root = run_allreduce(CollectiveAlgo::kLinear);
  report(state, root);
}
BENCHMARK(BM_AllreduceLinearBaseline)->UseRealTime()->MinTime(0.5);

void BM_AllreduceAutoRabenseifner(benchmark::State& state) {
  RootStats root;
  for (auto _ : state) root = run_allreduce(CollectiveAlgo::kAuto);
  report(state, root);
}
BENCHMARK(BM_AllreduceAutoRabenseifner)->UseRealTime()->MinTime(0.5);

void BM_AllgatherLinearBaseline(benchmark::State& state) {
  RootStats root;
  for (auto _ : state) root = run_allgather(CollectiveAlgo::kLinear);
  report(state, root);
}
BENCHMARK(BM_AllgatherLinearBaseline)->UseRealTime()->MinTime(0.5);

void BM_AllgatherAutoRing(benchmark::State& state) {
  RootStats root;
  for (auto _ : state) root = run_allgather(CollectiveAlgo::kAuto);
  report(state, root);
}
BENCHMARK(BM_AllgatherAutoRing)->UseRealTime()->MinTime(0.5);

void BM_AlltoallvLinearBaseline(benchmark::State& state) {
  RootStats root;
  for (auto _ : state) root = run_alltoallv();
  report(state, root);
}
BENCHMARK(BM_AlltoallvLinearBaseline)->UseRealTime()->MinTime(0.5);

}  // namespace

BENCHMARK_MAIN();
