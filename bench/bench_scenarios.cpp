// F9 — the end-to-end scenario suite as a tracked bench (ROADMAP item 4).
// Each benchmark drives the SAME library function the `scenario` tests
// gate on, at p = 4 and p = 8, and re-exports the scenario's folded
// `scenario.<name>.*` obs gauges as benchmark counters so the JSON output
// records per-scenario wall time next to per-layer numbers. A
// perf regression in any layer the composition crosses (transport,
// collectives, SpMV overlap, solver, shuffle, redistribution plan) moves
// these before it moves a microbench.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "comm/runner.hpp"
#include "obs/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "util/checkpoint.hpp"
#include "util/string_util.hpp"

namespace pc = pyhpc::comm;
namespace sc = pyhpc::scenarios;
namespace obs = pyhpc::obs;

namespace {

double metric(const std::string& name) {
  auto& reg = obs::MetricsRegistry::global();
  return reg.has(name) ? reg.value(name) : 0.0;
}

/// Copies the scenario's folded gauges onto the benchmark counters and
/// re-publishes them under a per-rank-count name so one metrics snapshot
/// can hold the p=4 and p=8 numbers side by side.
void export_scenario_counters(benchmark::State& state,
                              const std::string& scenario, int ranks,
                              std::initializer_list<const char*> extras) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string prefix = "scenario." + scenario + ".";
  state.counters["wall_ms"] = metric(prefix + "wall_ms");
  reg.set(pyhpc::util::cat(prefix, "p", ranks, ".wall_ms"),
          metric(prefix + "wall_ms"));
  for (const char* extra : extras) {
    state.counters[extra] = metric(prefix + extra);
  }
}

void BM_HeatEquation(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  sc::HeatOptions o;
  o.n = 192;
  o.steps = 8;
  for (auto _ : state) {
    pc::run(ranks, [&](pc::Communicator& comm) { sc::run_heat(comm, o); });
  }
  export_scenario_counters(state, "heat_equation", ranks,
                           {"solver_iterations", "steps"});
}
BENCHMARK(BM_HeatEquation)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_HeatEquationResilient(benchmark::State& state) {
  // The recovery machinery (checkpoint writes each interval) priced in,
  // without a fault: the overhead headline for the resilient path.
  const int ranks = static_cast<int>(state.range(0));
  sc::HeatOptions o;
  o.n = 192;
  o.steps = 8;
  o.scheme = sc::HeatScheme::kBackwardEuler;
  o.resilient = true;
  for (auto _ : state) {
    o.store = std::make_shared<pyhpc::util::CheckpointStore>();
    pc::run(ranks, [&](pc::Communicator& comm) { sc::run_heat(comm, o); });
  }
  export_scenario_counters(state, "heat_equation", ranks,
                           {"solver_iterations", "recoveries"});
}
BENCHMARK(BM_HeatEquationResilient)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PageRank(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const bool rebalance = state.range(1) != 0;
  sc::PageRankOptions o;
  o.nodes = 400;
  o.rebalance = rebalance;
  for (auto _ : state) {
    pc::run(ranks, [&](pc::Communicator& comm) { sc::run_pagerank(comm, o); });
  }
  export_scenario_counters(state, "pagerank", ranks,
                           {"iterations", "imbalance_before",
                            "imbalance_after"});
}
BENCHMARK(BM_PageRank)
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

void BM_TabularAnalytics(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  sc::AnalyticsOptions o;
  o.events = 2000;
  for (auto _ : state) {
    pc::run(ranks,
            [&](pc::Communicator& comm) { sc::run_analytics(comm, o); });
  }
  export_scenario_counters(state, "tabular_analytics", ranks,
                           {"rows_kept", "groups"});
}
BENCHMARK(BM_TabularAnalytics)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_Redistribution(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  sc::RedistOptions o;
  o.n = 1024;
  o.rows = 48;
  o.cols = 32;
  for (auto _ : state) {
    pc::run(ranks, [&](pc::Communicator& comm) {
      sc::run_redistribution(comm, o);
    });
  }
  export_scenario_counters(state, "redistribution", ranks,
                           {"hops", "elements_moved"});
}
BENCHMARK(BM_Redistribution)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
