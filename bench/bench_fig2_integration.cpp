// F2 — Figure 2 and the §V use case: the three packages working together.
//
// "The user allocates, initializes and manipulates a large simulation data
// set using ODIN ... devises a solution approach using PyTrilinos solvers
// that accept ODIN arrays and chooses an approach where the solver calls
// back to Python to evaluate a model. This model is prototyped and
// debugged in pure Python, but ... Seamless is used [to] convert this
// callback into a highly efficient numerical kernel."
//
// Pipeline: ODIN array setup -> to_tpetra -> CG+AMG solve of a 1D
// reaction-diffusion system whose RHS model is evaluated by a MiniPy
// callback at each Newton step — with the callback running interpreted,
// JIT-compiled or as native C++. Shape: end-to-end time tracks the callback
// tier; the solve portion is identical.
#include <benchmark/benchmark.h>

#include <cmath>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "odin/interop.hpp"
#include "odin/ufunc.hpp"
#include "precond/amg.hpp"
#include "seamless/seamless.hpp"
#include "solvers/krylov.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace od = pyhpc::odin;
namespace pp = pyhpc::precond;
namespace sm = pyhpc::seamless;
namespace sv = pyhpc::solvers;
using Arr = od::DistArray<double>;

namespace {

// The "model" the solver calls back into: a nonlinear source term
// s(u) = u - 0.1 * u^3, written in MiniPy.
const char* kModelSource =
    "def model(u, out):\n"
    "    for i in range(len(u)):\n"
    "        out[i] = u[i] - 0.1 * u[i] * u[i] * u[i]\n"
    "    return 0\n";

enum Tier { kInterp = 0, kJit = 1, kNative = 2 };

const char* tier_name(int tier) {
  switch (tier) {
    case kInterp: return "interpreted";
    case kJit: return "jit";
    default: return "native";
  }
}

// Evaluates the model on a local segment through the chosen tier.
void eval_model(sm::Engine& engine, int tier, std::span<double> u,
                std::span<double> out) {
  if (tier == kNative) {
    for (std::size_t i = 0; i < u.size(); ++i) {
      out[i] = u[i] - 0.1 * u[i] * u[i] * u[i];
    }
    return;
  }
  auto vu = sm::Value::of(sm::ArrayValue::view(u.data(), u.size()));
  auto vo = sm::Value::of(sm::ArrayValue::view(out.data(), out.size()));
  std::vector<sm::Value> args{vu, vo};
  if (tier == kInterp) {
    engine.run_interpreted("model", args);
  } else {
    engine.run_jit("model", args);
  }
}

void BM_FullPipeline(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const od::index_t n = state.range(1);
  const int ranks = static_cast<int>(state.range(2));
  double final_residual = 0.0;
  for (auto _ : state) {
    pc::run(ranks, [tier, n, &final_residual](pc::Communicator& comm) {
      sm::Engine engine(kModelSource);

      // 1) ODIN: allocate and initialize the simulation data set.
      auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
      auto u0 = Arr::linspace(dist, 0.0, 1.0);

      // 2) Hand the ODIN array to the Trilinos-analogue stack.
      auto u = od::to_tpetra(u0);
      auto map = u.map();
      auto a = gl::laplace1d(map);
      a.scale(static_cast<double>(n));  // diffusion scaling
      pp::AmgPreconditioner amg(a);

      // 3) Picard iteration: A u_{k+1} = s(u_k), the model evaluated by
      //    the Seamless callback each step.
      gl::Vector rhs(map), unew(map, 0.0);
      for (int it = 0; it < 3; ++it) {
        eval_model(engine, tier, u.local_view(), rhs.local_view());
        sv::KrylovOptions opt;
        opt.tolerance = 1e-8;
        auto res = sv::cg_solve(a, rhs, unew, opt, &amg);
        u.update(1.0, unew, 0.0);
        if (comm.rank() == 0) final_residual = res.achieved_tolerance;
      }
      // 4) Back into ODIN land for post-processing.
      auto result = od::from_tpetra(u);
      benchmark::DoNotOptimize(result.local_view().data());
    });
  }
  state.SetLabel(tier_name(tier));
  state.counters["solve_rel_residual"] = final_residual;
}
BENCHMARK(BM_FullPipeline)
    ->Args({kInterp, 4096, 2})
    ->Args({kJit, 4096, 2})
    ->Args({kNative, 4096, 2})
    ->Iterations(1);

// The callback alone, per tier — isolates what Seamless contributes.
void BM_ModelCallbackOnly(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  sm::Engine engine(kModelSource);
  std::vector<double> u(n, 0.5), out(n, 0.0);
  for (auto _ : state) {
    eval_model(engine, tier, u, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(tier_name(tier));
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ModelCallbackOnly)
    ->Args({kInterp, 4096})
    ->Args({kJit, 4096})
    ->Args({kNative, 4096});

// ODIN <-> Tpetra interop cost (the "ODIN arrays are optionally compatible
// with Trilinos distributed Vectors" hinge of Fig 2).
void BM_InteropRoundTrip(benchmark::State& state) {
  const od::index_t n = state.range(0);
  const int ranks = static_cast<int>(state.range(1));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto stats = pc::run_with_stats(ranks, [n](pc::Communicator& comm) {
      auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
      auto a = Arr::random(dist, 5);
      comm.stats().reset();
      auto v = od::to_tpetra(a);
      auto back = od::from_tpetra(v);
      benchmark::DoNotOptimize(back.local_view().data());
    });
    bytes = stats.p2p_bytes_sent;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["element_bytes_moved"] = static_cast<double>(bytes);
}
BENCHMARK(BM_InteropRoundTrip)->Args({1 << 18, 4})->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
