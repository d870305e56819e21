// Shared pieces of the benchmark: run configuration, seeded input
// generation, repetition results, the metric report, and the run loop every
// workload goes through.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny inputs and exactly one repetition per phase, so
  /// two runs with one seed do identical work.
  bool tiny = false;
  /// Where a traced run writes the spans of its first traced repetition
  /// (empty: not written).
  std::string trace_out;
};

/// splitmix64: the benchmark's one source of seeded inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A double in [0, 1), exactly representable, from (seed, index).
inline double unit_value(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed ^ mix64(index)) >> 11) * 0x1p-53;
}

/// What one repetition (one world, start to join) reports. Times come from
/// rank 0.
struct RepResult {
  double setup_s = 0.0;
  double teardown_s = 0.0;      // last check done -> world joined
  std::vector<double> step_ms;  // one entry per step attempted
  std::int64_t steps_failed = 0;  // threw, did not converge, failed a check
  double wall_s() const;  // setup + steps + teardown, checks excluded
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run prints.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> detail;  // diagnostics, never gated
  std::vector<std::string> lines;        // human-readable summary
  std::string error;                     // what a failed world threw
};

/// Adds `b - a` of the transport counters the workloads report.
void add_delta(pyhpc::comm::CommStats& acc, const pyhpc::comm::CommStats& a,
               const pyhpc::comm::CommStats& b);

/// Value of an obs counter in the process-global registry (0 if unset).
double obs_value(const std::string& name);

double median(std::vector<double> v);

/// One workload: a fixed job that runs as a world from start to join.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int ranks() const = 0;
  virtual int lanes() const = 0;  // TaskPool lanes per rank
  virtual int steps_per_rep() const = 0;
  /// Runs one repetition. With `tracer` non-null the rep records spans
  /// (rank threads call tracer->attach).
  virtual RepResult run_rep(Tracer* tracer) = 0;
  /// Span names whose rank-0 duration distribution the report needs.
  virtual std::vector<std::string> sampled_spans() const { return {}; }
  /// Adds this workload's per-layer metrics from the traced reps' summary
  /// and the counters the workload accumulated over every rep.
  virtual void layer_metrics(const TraceSummary& summary,
                             std::int64_t traced_steps, int traced_reps,
                             Report& out) const = 0;
};

std::unique_ptr<Workload> make_fig2_imex(const RunConfig& cfg);
std::unique_ptr<Workload> make_redistribute(const RunConfig& cfg);
std::unique_ptr<Workload> make_service(const RunConfig& cfg);

/// Runs reps until cfg.seconds have passed (a traced run spends the first
/// half untraced and the second traced) and fills the report.
Report run_workload(Workload& w, const RunConfig& cfg);

}  // namespace perfbench
