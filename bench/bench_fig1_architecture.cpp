// F1 — Figure 1: the ODIN process architecture. Measures the three
// quantitative claims in the figure's caption and §III.B:
//
//  1. "the only communication from the top-level node is a short message,
//     at most tens of bytes" — control bytes per operation, independent of
//     array size;
//  2. "several messages can be buffered and sent at once" — batched vs
//     unbatched dispatch;
//  3. "so that the ODIN process does not become a performance bottleneck"
//     — driver-mediated dispatch vs SPMD global mode where every rank
//     derives the op descriptor locally.
#include <benchmark/benchmark.h>

#include <chrono>

#include "comm/runner.hpp"
#include "odin/service.hpp"
#include "odin/ufunc.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
using Arr = od::DistArray<double>;

namespace {

// Every op ships as its own payload per worker: unbatched dispatch.
od::ServiceOptions per_op_dispatch() {
  od::ServiceOptions opts;
  opts.batch_messages = 1;
  return opts;
}

// Runs `client(svc, session)` on the driver rank of a 1 + (P-1) service
// whose workers serve until the client returns and the service shuts down.
template <class Client>
void serve(pc::Communicator& comm, const od::ServiceOptions& opts,
           Client client) {
  od::ServiceContext svc(comm, opts);
  if (!svc.is_driver()) {
    svc.worker_loop();
    return;
  }
  od::Session s = svc.open_session();
  client(svc, s);
  svc.shutdown();
}

// Claim 1: control bytes per op do not scale with n.
void BM_DriverControlBytes(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  double bytes_per_op = 0.0;
  for (auto _ : state) {
    pc::run(ranks, [n, &bytes_per_op](pc::Communicator& comm) {
      serve(comm, per_op_dispatch(), [&](od::ServiceContext& svc,
                                         od::Session& s) {
        const auto before = svc.driver().control_bytes_sent();
        const int x = s.create_random(n, 1);
        const int y = s.create_random(n, 2);
        const int h = s.binary("hypot", x, y);
        (void)s.reduce_sum(h);
        const auto ops = 4.0 * svc.num_workers();
        bytes_per_op =
            static_cast<double>(svc.driver().control_bytes_sent() - before) /
            ops;
      });
    });
  }
  state.counters["control_bytes_per_op"] = bytes_per_op;
}
BENCHMARK(BM_DriverControlBytes)
    ->Args({1000, 4})
    ->Args({1000000, 4})  // 1000x data, same control bytes
    ->Iterations(3);

// Claim 2: batching N ops into one payload per worker. Batched, only the
// reduce flushes: the ops and the reduce at their tail ship as one payload.
void BM_DriverDispatch(benchmark::State& state) {
  const bool batched = state.range(0) == 1;
  const int ops = static_cast<int>(state.range(1));
  const int ranks = 4;
  od::ServiceOptions opts = per_op_dispatch();
  if (batched) {
    opts.batch_messages = static_cast<std::size_t>(ops) + 1;
    opts.batch_window = std::chrono::seconds(10);
  }
  double payloads = 0.0;
  for (auto _ : state) {
    pc::run(ranks, [&](pc::Communicator& comm) {
      serve(comm, opts, [&](od::ServiceContext& svc, od::Session& s) {
        int cur = s.create_full(4096, 1.0);
        s.flush();
        const auto before = svc.driver().payloads_sent();
        for (int i = 0; i < ops; ++i) cur = s.unary("sqrt", cur);
        (void)s.reduce_sum(cur);
        payloads = static_cast<double>(svc.driver().payloads_sent() - before);
      });
    });
  }
  state.SetLabel(batched ? "batched" : "unbatched");
  state.counters["payloads"] = payloads;
}
BENCHMARK(BM_DriverDispatch)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Iterations(3);

// Claim 3: driver dispatch vs SPMD global mode. In SPMD mode, every rank
// derives the op locally: zero control messages, no central bottleneck.
void BM_SpmdGlobalMode(benchmark::State& state) {
  const od::index_t n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  std::uint64_t control_bytes = 0;
  for (auto _ : state) {
    auto stats = pc::run_with_stats(ranks, [n](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
      auto x = Arr::random(dist, 1);
      auto y = Arr::random(dist, 2);
      comm.stats().reset();
      auto h = od::hypot(x, y);
      const double s = h.sum();  // one allreduce, like reduce_sum
      benchmark::DoNotOptimize(s);
    });
    control_bytes = stats.p2p_bytes_sent;  // zero: no driver traffic
  }
  state.counters["driver_bytes"] = static_cast<double>(control_bytes);
}
BENCHMARK(BM_SpmdGlobalMode)->Args({1000, 4})->Args({1000000, 4})->Iterations(3);

void BM_DriverMediated(benchmark::State& state) {
  // The same computation through the driver (rank 0 does no compute; one
  // worker fewer does the work + control round-trips).
  const std::int64_t n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  for (auto _ : state) {
    pc::run(ranks, [n](pc::Communicator& comm) {
      serve(comm, per_op_dispatch(), [n](od::ServiceContext&, od::Session& s) {
        const int x = s.create_random(n, 1);
        const int y = s.create_random(n, 2);
        const int h = s.binary("hypot", x, y);
        const double sum = s.reduce_sum(h);
        benchmark::DoNotOptimize(sum);
      });
    });
  }
}
BENCHMARK(BM_DriverMediated)->Args({1000, 4})->Args({1000000, 4})->Iterations(3);

// Driver bottleneck scaling: many tiny ops, increasing worker counts. The
// driver serializes dispatch (and waits for every worker's ack), so op
// throughput saturates — the effect the paper tells users to avoid via
// direct worker-to-worker communication.
void BM_DriverBottleneck(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int ops = 200;
  for (auto _ : state) {
    pc::run(ranks, [ops](pc::Communicator& comm) {
      serve(comm, per_op_dispatch(), [ops](od::ServiceContext&,
                                            od::Session& s) {
        int cur = s.create_full(64, 2.0);
        for (int i = 0; i < ops; ++i) cur = s.unary("sqrt", cur);
        (void)s.reduce_sum(cur);
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_DriverBottleneck)->Arg(2)->Arg(4)->Arg(8)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
