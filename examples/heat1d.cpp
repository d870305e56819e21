// Explicit heat equation on a 1D rod — the paper's §III.G scenario
// ("finite difference calculations on structured grids ... with a single
// NumPy-like expression") as a time-stepping application.
//
//   u_t = alpha u_xx,  u(0)=u(L)=0,  u(x,0) = spike at the center
//
// Each step is one ODIN slice expression:
//   u[1:-1] += r * (u[2:] - 2 u[1:-1] + u[:-2])
// and the result is written with the distributed IO layer.
//
// Run:  ./heat1d [n] [steps] [nranks]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "comm/runner.hpp"
#include "odin/io.hpp"
#include "odin/expr.hpp"
#include "odin/slicing.hpp"
#include "odin/ufunc.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
using Arr = od::DistArray<double>;

int main(int argc, char** argv) {
  const od::index_t n = argc > 1 ? std::atoll(argv[1]) : 512;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 200;
  const int nranks = argc > 3 ? std::atoi(argv[3]) : 4;
  const double r = 0.25;  // alpha dt / dx^2, stable for r <= 0.5

  pc::run(nranks, [n, steps, r](pc::Communicator& comm) {
    const bool root = comm.rank() == 0;
    auto dist = od::Distribution::block(comm, od::Shape({n}), 0);

    // Initial condition: unit spike in the middle.
    Arr u = Arr::zeros(dist);
    u.set_global({n / 2}, 1.0);
    const double total0 = u.sum();

    for (int step = 0; step < steps; ++step) {
      using od::Slice;
      auto mid = od::slice(u, {Slice::range(1, -1)});
      auto left = od::slice(u, {Slice::to(-2)});
      auto right = od::slice(u, {Slice::from(2)});
      // u_new interior = mid + r (right - 2 mid + left), fused in one pass.
      auto interior = od::eval(od::lazy(mid) * (1.0 - 2.0 * r) +
                               (od::lazy(left) + od::lazy(right)) * r);
      // Scatter the interior back into u at offset +1 (boundaries stay
      // zero). Interior's block cuts are shifted by one relative to u's,
      // so route each value to the rank owning u[g+1].
      struct Entry {
        od::index_t target_local;
        double value;
      };
      std::vector<std::vector<Entry>> outgoing(
          static_cast<std::size_t>(comm.size()));
      auto inner_view = interior.local_view();
      for (od::index_t l = 0; l < interior.local_size(); ++l) {
        const auto g = interior.dist().global_of_local(l);
        const auto [owner, lidx] = u.dist().owner_of(std::vector<od::index_t>{g[0] + 1});
        outgoing[static_cast<std::size_t>(owner)].push_back(
            Entry{lidx, inner_view[static_cast<std::size_t>(l)]});
      }
      auto incoming = comm.alltoallv(std::move(outgoing));
      auto uv = u.local_view();
      for (const auto& part : incoming) {
        for (const auto& e : part) {
          uv[static_cast<std::size_t>(e.target_local)] = e.value;
        }
      }
      if ((step + 1) % 50 == 0) {
        const double peak = u.max();  // collective: every rank participates
        const double mass = u.sum();
        if (root) {
          std::printf("step %4d: max u = %.6f, mass = %.6f\n", step + 1, peak,
                      mass);
        }
      }
    }

    // Physical sanity: diffusion conserves interior mass until it leaks
    // through the boundaries; the peak decays monotonically.
    const double total = u.sum();
    if (root) {
      std::printf("mass: initial %.4f -> final %.4f (boundary leakage)\n",
                  total0, total);
    }

    // Distributed IO: write, read back under a cyclic layout, verify.
    const std::string path = "/tmp/heat1d_result.bin";
    od::write_distributed(u, path);
    auto cyc = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    auto back = od::read_distributed(cyc, path);
    const double back_sum = back.sum();  // collective
    const double diff = std::abs(back_sum - total);
    if (root) {
      std::printf("io round-trip (block -> file -> cyclic): |mass diff| = %.2e\n",
                  diff);
    }
  });
  return 0;
}
