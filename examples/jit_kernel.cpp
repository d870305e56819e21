// The paper's closing use case (§V): "A user can create a function designed
// to work on array data, compile it with Seamless' JIT compiler ..., and
// use that function as the node-level function for a distributed array
// computation with ODIN."
//
// A Gaussian-blur kernel is written in MiniPy, JIT-compiled, registered as
// an ODIN local function, and applied to a distributed array; the demo
// prints per-tier timings of the same kernel so the speedup from the JIT
// is visible in context.
//
// Run:  ./jit_kernel [n] [nranks]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "comm/runner.hpp"
#include "odin/local.hpp"
#include "odin/ufunc.hpp"
#include "seamless/seamless.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace sm = pyhpc::seamless;
using Arr = od::DistArray<double>;

namespace {

// The node-level kernel, in the Python subset: squared deviation from the
// segment mean (a per-node statistical transform).
const char* kKernelSource =
    "def zscore(u, out):\n"
    "    n = len(u)\n"
    "    mean = 0.0\n"
    "    for i in range(n):\n"
    "        mean += u[i]\n"
    "    mean = mean / n\n"
    "    var = 0.0\n"
    "    for i in range(n):\n"
    "        var += (u[i] - mean) * (u[i] - mean)\n"
    "    var = var / n\n"
    "    s = sqrt(var)\n"
    "    for i in range(n):\n"
    "        out[i] = (u[i] - mean) / s\n"
    "    return 0\n";

double time_tier(sm::Engine& engine, const char* tier, std::vector<double>& u,
                 std::vector<double>& out) {
  auto vu = sm::Value::of(sm::ArrayValue::view(u.data(), u.size()));
  auto vo = sm::Value::of(sm::ArrayValue::view(out.data(), out.size()));
  std::vector<sm::Value> args{vu, vo};
  const auto t0 = std::chrono::steady_clock::now();
  if (std::string(tier) == "interpreted") {
    engine.run_interpreted("zscore", args);
  } else {
    engine.run_jit("zscore", args);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const od::index_t n = argc > 1 ? std::atoll(argv[1]) : 1 << 18;
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 4;

  // Per-tier timing of the standalone kernel.
  {
    sm::Engine engine(kKernelSource);
    std::vector<double> u(1 << 16), out(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      u[i] = static_cast<double>(i % 97);
    }
    std::printf("kernel on %zu elements:\n", u.size());
    for (const char* tier : {"interpreted", "jit", "jit"}) {
      std::printf("  %-12s %8.3f ms\n", tier,
                  1e3 * time_tier(engine, tier, u, out));
    }
    std::printf("  (second jit run shows the cached compiled code)\n");
  }

  // Register the JIT-compiled kernel as the ODIN local function and apply
  // it to a distributed array — the paper's "node-level function" step.
  // The engine is shared per process; each rank-thread guards its call.
  static sm::Engine shared_engine(kKernelSource);
  static std::mutex engine_mu;
  od::LocalRegistry::instance().register_function(
      "zscore",
      [](const od::LocalContext&,
         const std::vector<std::span<const double>>& in,
         std::span<double> out) {
        std::vector<double> copy(in[0].begin(), in[0].end());
        auto vu = sm::Value::of(sm::ArrayValue::view(copy.data(), copy.size()));
        auto vo = sm::Value::of(sm::ArrayValue::view(out.data(), out.size()));
        std::lock_guard<std::mutex> lock(engine_mu);
        shared_engine.run_jit("zscore", {vu, vo});
      });

  pc::run(nranks, [n](pc::Communicator& comm) {
    auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto u = Arr::random(dist, 99);
    auto z = od::call_local("zscore", u);
    // Each segment is now zero-mean, unit-variance; check globally per
    // rank and report from root.
    double local_mean = 0.0;
    auto zv = z.local_view();
    for (double v : zv) local_mean += v;
    local_mean /= static_cast<double>(zv.size());
    const double worst = comm.allreduce_value(
        std::abs(local_mean), [](double a, double b) { return std::max(a, b); });
    if (comm.rank() == 0) {
      std::printf("distributed zscore over %lld elements, %d ranks: "
                  "max per-segment |mean| = %.2e\n",
                  static_cast<long long>(n), comm.size(), worst);
    }
  });
  return 0;
}
