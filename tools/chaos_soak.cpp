// Chaos soak driver: many seeded fault schedules against the recovery
// stack. Each seed deterministically derives a scenario mix — collective
// storms under delay/duplicate noise, resilient CG runs with a drop,
// delay, or kill rule armed mid-solve, and zero-copy transport pipelines
// (moved sends, split-phase SpMV overlap) under the same noise — and asserts exact values (storms, pipelines) or the
// solution oracle (solves). Any seed that fails prints a one-line replay
// recipe.
//
//   chaos_soak [--seeds N] [--base-seed B] [--only-seed S] [--verbose]
//
// Exit code 0 iff every seed passed. Registered as the `soak` CTest label
// by tools/CMakeLists.txt; tools/run_soak.sh is the command-line front end.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/config.hpp"
#include "comm/fault.hpp"
#include "comm/runner.hpp"
#include "odin/service.hpp"
#include "obs/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "solvers/resilient.hpp"
#include "tpetra/crs_matrix.hpp"
#include "tpetra/map.hpp"
#include "tpetra/vector.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace pc = pyhpc::comm;
namespace pt = pyhpc::tpetra;
namespace ps = pyhpc::solvers;
namespace pu = pyhpc::util;

using namespace std::chrono_literals;

namespace {

struct Failure {
  std::uint64_t seed = 0;
  std::string scenario;
  std::string what;
};

pt::CrsMatrix<double> laplacian(const pt::Map<>& map) {
  pt::CrsMatrix<double> a(map);
  const std::int64_t n = map.num_global();
  for (const auto g : map.my_global_indices()) {
    a.insert_global_value(g, g, 2.0);
    if (g > 0) a.insert_global_value(g, g - 1, -1.0);
    if (g + 1 < n) a.insert_global_value(g, g + 1, -1.0);
  }
  a.fill_complete();
  return a;
}

double truth(std::int64_t i) { return std::sin(0.1 * static_cast<double>(i)); }

void check(bool ok, const std::string& what) {
  pyhpc::require(ok, what);
}

// Scenario A: collective storm — allreduces/broadcasts with exact value
// assertions while delay and duplicate rules perturb timing and dedup.
void collective_storm(std::uint64_t seed) {
  pu::SplitMix64 rng(seed);
  auto inj = std::make_shared<pc::FaultInjector>(seed);
  const int nranks = 3 + static_cast<int>(rng.next() % 4);  // 3..6
  {
    pc::FaultRule delay;
    delay.kind = pc::FaultKind::kDelay;
    delay.source = static_cast<int>(rng.next() % nranks);
    delay.delay = std::chrono::milliseconds(1 + rng.next() % 8);
    delay.probability = 0.10;
    inj->add_rule(delay);
    pc::FaultRule dup;
    dup.kind = pc::FaultKind::kDuplicate;
    dup.source = static_cast<int>(rng.next() % nranks);
    dup.probability = 0.15;
    inj->add_rule(dup);
  }
  const int rounds = 20 + static_cast<int>(rng.next() % 20);
  pc::CommConfig cfg;
  cfg.injector = inj;
  cfg.recv_timeout = 5000ms;
  pc::run(nranks, cfg, [&](pc::Communicator& comm) {
    for (int i = 0; i < rounds; ++i) {
      const int sum = comm.allreduce_value<int>(
          comm.rank() + i, [](int a, int b) { return a + b; });
      const int p = comm.size();
      check(sum == p * (p - 1) / 2 + p * i, "storm: allreduce value drifted");
      const int root = i % p;
      const int got = comm.broadcast_value<int>(
          comm.rank() == root ? 1000 + i : -1, root);
      check(got == 1000 + i, "storm: broadcast value drifted");
    }
  });
}

// Scenario B: resilient CG with one fault rule — drop, delay, or kill —
// armed after assembly. The solve must complete with the right answer no
// matter which schedule fired.
void resilient_cg(std::uint64_t seed) {
  pu::SplitMix64 rng(seed);
  auto inj = std::make_shared<pc::FaultInjector>(seed);
  const int nranks = 4 + static_cast<int>(rng.next() % 5);  // 4..8
  const std::int64_t n = 48 + static_cast<std::int64_t>(rng.next() % 4) * 16;
  const int kind_pick = static_cast<int>(rng.next() % 3);
  const int victim = 1 + static_cast<int>(rng.next() % (nranks - 1));
  const int skip = 30 + static_cast<int>(rng.next() % 60);

  auto store = std::make_shared<pu::CheckpointStore>();
  pc::CommConfig cfg;
  cfg.injector = inj;
  cfg.recv_timeout = 2000ms;
  pc::run(nranks, cfg, [&](pc::Communicator& comm) {
    auto map = pt::Map<>::uniform(comm, n);
    auto a = laplacian(map);
    pt::Vector<double> xt(map), b(map), x0(map);
    for (std::int32_t i = 0; i < map.num_local(); ++i) {
      xt[i] = truth(map.local_to_global(i));
    }
    a.apply(xt, b);

    // Arm the fault only once assembly is done, so the solve is the target.
    comm.barrier();
    if (comm.rank() == 0) {
      pc::FaultRule rule;
      rule.source = victim;
      rule.skip_first = skip;
      rule.max_applications = 1;
      switch (kind_pick) {
        case 0:
          rule.kind = pc::FaultKind::kDrop;
          break;
        case 1:
          rule.kind = pc::FaultKind::kDelay;
          rule.delay = 80ms;
          break;
        default:
          rule.kind = pc::FaultKind::kKillRank;
          rule.victim = victim;
          break;
      }
      inj->add_rule(rule);
    }
    comm.barrier();

    ps::ResilientOptions opts;
    opts.krylov.tolerance = 1e-12;
    opts.krylov.max_iterations = 800;
    opts.checkpoint_interval = 1 + static_cast<int>(seed % 4);
    auto res = ps::resilient_solve(*store, a, b, x0, opts);
    check(res.solve.converged, "soak CG did not converge");
    for (std::int64_t i = 0; i < n; ++i) {
      check(std::abs(res.x_global[static_cast<std::size_t>(i)] - truth(i)) <
                1e-6,
            "soak CG solution off at index " + std::to_string(i));
    }
    if (kind_pick == 2) {
      check(res.final_size == nranks - res.recoveries,
            "soak CG: survivor count inconsistent with recoveries");
    }
  });
}

// Scenario C: zero-copy pipeline — moved-vector ring shifts and the
// split-phase SpMV halo overlap, both under delay/duplicate noise with
// exact value assertions.
void zero_copy_pipeline(std::uint64_t seed) {
  pu::SplitMix64 rng(seed);
  auto inj = std::make_shared<pc::FaultInjector>(seed);
  const int nranks = 2 + static_cast<int>(rng.next() % 4);  // 2..5
  {
    pc::FaultRule delay;
    delay.kind = pc::FaultKind::kDelay;
    delay.source = static_cast<int>(rng.next() % nranks);
    delay.delay = std::chrono::milliseconds(1 + rng.next() % 8);
    delay.probability = 0.10;
    inj->add_rule(delay);
    pc::FaultRule dup;
    dup.kind = pc::FaultKind::kDuplicate;
    dup.source = static_cast<int>(rng.next() % nranks);
    dup.probability = 0.15;
    inj->add_rule(dup);
  }
  const int rounds = 10 + static_cast<int>(rng.next() % 10);
  pc::CommConfig cfg;
  cfg.injector = inj;
  cfg.recv_timeout = 5000ms;
  pc::run(nranks, cfg, [&](pc::Communicator& comm) {
    const int p = comm.size();
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    for (int i = 0; i < rounds; ++i) {
      // Fresh tags per round: a duplicated envelope must never be matched
      // by the next round's receive.
      const int ring_tag = 100 + i;
      std::vector<int> ring(32, comm.rank() * 1000 + i);
      comm.send(std::move(ring), next, ring_tag);
      auto got = comm.recv_vector<int>(prev, ring_tag);
      check(got.size() == 32 && got.front() == prev * 1000 + i &&
                got.back() == prev * 1000 + i,
            "zero-copy ring payload drifted");
    }
    // Split-phase SpMV: the 1D Laplacian applied to ones is zero on the
    // interior and one at the two global ends.
    auto map = pt::Map<>::uniform(comm, 64);
    auto a = laplacian(map);
    pt::Vector<double> x(map, 1.0), y(map);
    a.apply(x, y);
    const std::int64_t n = map.num_global();
    for (std::int32_t i = 0; i < map.num_local(); ++i) {
      const auto g = map.local_to_global(i);
      const double want = (g == 0 || g + 1 == n) ? 1.0 : 0.0;
      check(std::abs(y[i] - want) < 1e-12, "overlap SpMV value drifted");
    }
  });
}

// Scenario E: scenario sweep — the full heat-equation application
// (src/scenarios) under the same seeded drop/delay/kill matrix the
// resilient-CG soak uses. The end-to-end composition — assembly, time
// stepping, resilient solves, checkpoint/restore — must either finish all
// steps exactly or stop early at a recovery, and in both cases match the
// serial Thomas reference for the steps that completed.
void scenario_sweep(std::uint64_t seed) {
  namespace sn = pyhpc::scenarios;
  pu::SplitMix64 rng(seed);
  auto inj = std::make_shared<pc::FaultInjector>(seed);
  const int nranks = 4 + static_cast<int>(rng.next() % 5);  // 4..8
  const int kind_pick = static_cast<int>(rng.next() % 3);
  const int victim = 1 + static_cast<int>(rng.next() % (nranks - 1));
  const int skip = 30 + static_cast<int>(rng.next() % 60);

  sn::HeatOptions o;
  o.n = 48 + static_cast<std::int64_t>(rng.next() % 4) * 16;
  o.steps = 2 + static_cast<int>(rng.next() % 3);
  o.scheme = sn::HeatScheme::kBackwardEuler;
  o.resilient = true;
  o.store = std::make_shared<pu::CheckpointStore>();
  o.injector = inj;
  sn::HeatFault fault;
  fault.kind = kind_pick == 0   ? pc::FaultKind::kDrop
               : kind_pick == 1 ? pc::FaultKind::kDelay
                                : pc::FaultKind::kKillRank;
  fault.victim = victim;
  fault.skip = skip;
  fault.delay = 80ms;
  o.fault = fault;

  pc::CommConfig cfg;
  cfg.injector = inj;
  cfg.recv_timeout = 2000ms;
  pc::run(nranks, cfg, [&](pc::Communicator& comm) {
    const auto res = sn::run_heat(comm, o);
    check(res.solver_iterations > 0, "soak heat: no solver iterations ran");
    check(res.converged, "soak heat: a completed step's solve diverged");
    check(res.steps_completed >= 1, "soak heat: no step completed");
    if (res.recoveries == 0) {
      check(res.steps_completed == o.steps,
            "soak heat: ended early without a recovery");
    }
    if (fault.kind == pc::FaultKind::kKillRank) {
      check(res.final_size == nranks - res.recoveries,
            "soak heat: survivor count inconsistent with recoveries");
    }
    sn::HeatOptions truncated = o;
    truncated.steps = res.steps_completed;
    const auto ref = sn::heat_serial_reference(truncated);
    check(res.u.size() == ref.size(), "soak heat: field size mismatch");
    for (std::size_t i = 0; i < ref.size(); ++i) {
      check(std::abs(res.u[i] - ref[i]) < 1e-6,
            "soak heat: field off at grid point " + std::to_string(i));
    }
  });
}

// Scenario D: service storm — a multiplexed driver service (DESIGN.md
// §10) with 2–4 concurrent client sessions running exact arithmetic
// pipelines while drop/duplicate/delay rules perturb the control tag.
// Session isolation and the epoch/sequence protocol must keep every
// session's reduce exact despite retransmissions and stale duplicates.
void service_storm(std::uint64_t seed) {
  namespace po = pyhpc::odin;
  pu::SplitMix64 rng(seed);
  auto inj = std::make_shared<pc::FaultInjector>(seed);
  const int nranks = 3 + static_cast<int>(rng.next() % 3);  // 3..5
  {
    pc::FaultRule drop;
    drop.kind = pc::FaultKind::kDrop;
    drop.tag = po::kControlTag;
    drop.probability = 0.08;
    inj->add_rule(drop);
    pc::FaultRule dup;
    dup.kind = pc::FaultKind::kDuplicate;
    dup.tag = po::kControlTag;
    dup.probability = 0.12;
    inj->add_rule(dup);
    pc::FaultRule delay;
    delay.kind = pc::FaultKind::kDelay;
    delay.tag = po::kControlTag;
    delay.delay = std::chrono::milliseconds(1 + rng.next() % 6);
    delay.probability = 0.10;
    inj->add_rule(delay);
  }
  const int nsessions = 2 + static_cast<int>(rng.next() % 3);  // 2..4
  const int iters = 3 + static_cast<int>(rng.next() % 4);      // 3..6
  const std::int64_t n = 24 + static_cast<std::int64_t>(rng.next() % 5) *
                                  static_cast<std::int64_t>(nranks - 1);
  pc::CommConfig cfg;
  cfg.injector = inj;
  cfg.recv_timeout = 5000ms;
  pc::run(nranks, cfg, [&](pc::Communicator& comm) {
    po::ServiceOptions opts;
    opts.driver.ack_timeout = 60ms;
    opts.driver.max_retries = 12;
    opts.driver.reply_timeout = 2000ms;
    opts.overload = po::OverloadPolicy::kPark;
    opts.batch_messages = 1 + static_cast<std::size_t>(seed % 8);
    po::ServiceContext svc(comm, opts);
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    std::vector<std::thread> clients;
    std::atomic<int> bad{0};
    for (int c = 0; c < nsessions; ++c) {
      clients.emplace_back([&svc, &bad, c, iters, n] {
        try {
          po::Session s = svc.open_session();
          const double v = static_cast<double>(c + 1);
          const int base = s.create_full(n, v);
          int acc = s.create_full(n, v);
          for (int i = 0; i < iters; ++i) acc = s.axpy(1.0, base, acc);
          const double got = s.reduce_sum(acc);
          const double want = static_cast<double>(n) * v *
                              static_cast<double>(iters + 1);
          check(std::abs(got - want) < 1e-9 * want,
                "service session pipeline drifted");
          s.close();
        } catch (...) {
          bad.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    svc.shutdown();
    check(bad.load() == 0, "service storm: a session failed under noise");
  });
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 20;
  std::uint64_t base_seed = 1000;
  std::int64_t only_seed = -1;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--base-seed") && i + 1 < argc) {
      base_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--only-seed") && i + 1 < argc) {
      only_seed = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--base-seed B] [--only-seed S] "
                   "[--verbose]\n",
                   argv[0]);
      return 2;
    }
  }

  struct Scenario {
    const char* name;
    void (*fn)(std::uint64_t);
  };
  const Scenario scenarios[] = {{"collective_storm", collective_storm},
                                {"resilient_cg", resilient_cg},
                                {"zero_copy_pipeline", zero_copy_pipeline},
                                {"service_storm", service_storm},
                                {"scenario_sweep", scenario_sweep}};

  std::vector<Failure> failures;
  int ran = 0;
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t seed =
        only_seed >= 0 ? static_cast<std::uint64_t>(only_seed)
                       : base_seed + static_cast<std::uint64_t>(k);
    for (const auto& sc : scenarios) {
      ++ran;
      try {
        sc.fn(seed);
        if (verbose) {
          std::printf("PASS seed=%llu scenario=%s\n",
                      static_cast<unsigned long long>(seed), sc.name);
        }
      } catch (const std::exception& e) {
        failures.push_back({seed, sc.name, e.what()});
        std::printf("FAIL seed=%llu scenario=%s: %s\n",
                    static_cast<unsigned long long>(seed), sc.name, e.what());
        std::printf("  replay: chaos_soak --only-seed %llu --seeds 1\n",
                    static_cast<unsigned long long>(seed));
      }
    }
    if (only_seed >= 0) break;
  }

  std::printf("chaos_soak: %d runs, %zu failures\n", ran, failures.size());
  return failures.empty() ? 0 : 1;
}
