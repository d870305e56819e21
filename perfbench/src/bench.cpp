#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>

#include "obs/metrics.hpp"

namespace perfbench {

double RepResult::wall_s() const {
  double steps_ms = 0.0;
  for (double ms : step_ms) steps_ms += ms;
  return setup_s + steps_ms * 1e-3 + teardown_s;
}

void add_delta(pyhpc::comm::CommStats& acc, const pyhpc::comm::CommStats& a,
               const pyhpc::comm::CommStats& b) {
  acc.p2p_messages_sent += b.p2p_messages_sent - a.p2p_messages_sent;
  acc.p2p_bytes_sent += b.p2p_bytes_sent - a.p2p_bytes_sent;
  acc.p2p_messages_received +=
      b.p2p_messages_received - a.p2p_messages_received;
  acc.p2p_bytes_received += b.p2p_bytes_received - a.p2p_bytes_received;
  acc.coll_messages_sent += b.coll_messages_sent - a.coll_messages_sent;
  acc.coll_bytes_sent += b.coll_bytes_sent - a.coll_bytes_sent;
  acc.collectives += b.collectives - a.collectives;
  acc.bytes_copied += b.bytes_copied - a.bytes_copied;
  acc.zero_copy_bytes += b.zero_copy_bytes - a.zero_copy_bytes;
  acc.arena_hits += b.arena_hits - a.arena_hits;
  acc.arena_misses += b.arena_misses - a.arena_misses;
  acc.retries += b.retries - a.retries;
  acc.timeouts += b.timeouts - a.timeouts;
}

double obs_value(const std::string& name) {
  const auto& reg = pyhpc::obs::MetricsRegistry::global();
  return reg.has(name) ? reg.value(name) : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

namespace {

// Layers whose self time per step the traced run reports; "bench" is the
// benchmark's own glue inside a step (time no layer span covers).
const char* const kLayers[] = {"bench", "odin", "tpetra", "precond", "solvers",
                               "seamless"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one phase (untraced or traced reps) keeps of its repetitions.
struct Phase {
  std::vector<double> walls, setups;
  Histogram steps;
};

}  // namespace

Report run_workload(Workload& w, const RunConfig& cfg) {
  Report out;
  Tracer tracer;
  TraceSummary summary;
  for (const auto& name : w.sampled_spans()) summary.sampled.insert(name);
  Phase plain, traced;
  std::vector<SpanBuffer> kept;  // spans of the first traced rep

  const std::int64_t start = now_ns();
  auto run_phase = [&](bool with_trace, double until_share) {
    const std::int64_t until =
        start + static_cast<std::int64_t>(cfg.seconds * until_share * 1e9);
    do {
      if (with_trace) tracer.begin_rep(w.ranks());
      const RepResult r = w.run_rep(with_trace ? &tracer : nullptr);
      if (with_trace) {
        tracer.end_rep();
        summary.add(tracer.buffers());
        if (kept.empty()) kept = tracer.buffers();
      } else if (plain.walls.empty()) {
        // Memory is the high-water mark of the first job: later worlds reuse
        // (or fragment) what the allocator already holds, and how many of
        // them fit in the run depends on speed.
        out.end_to_end["peak_rss_mb"].value = peak_rss_mb();
      }
      Phase& phase = with_trace ? traced : plain;
      phase.walls.push_back(r.wall_s());
      phase.setups.push_back(r.setup_s);
      for (double ms : r.step_ms) phase.steps.add(ms);
      out.attempted += static_cast<std::int64_t>(r.step_ms.size());
      out.failed += r.steps_failed;
    } while (!cfg.tiny && now_ns() < until);
  };
  try {
    // A traced run measures untraced reps first, for trace_overhead.
    run_phase(false, cfg.trace ? 0.5 : 1.0);
    if (cfg.trace) run_phase(true, 1.0);
  } catch (const std::exception& ex) {
    // A world that threw fails every step of its repetition; no more reps.
    out.error = ex.what();
    out.attempted += w.steps_per_rep();
    out.failed += w.steps_per_rep();
  }

  auto& e = out.end_to_end;
  e["wall_s"].value = median(plain.walls);
  e["setup_s"].value = median(plain.setups);
  e["step_ms.p50"].value = plain.steps.quantile(0.50);
  e["step_ms.p99"].value = plain.steps.quantile(0.99);
  out.detail["reps"] = {static_cast<double>(plain.walls.size()), "count"};
  out.detail["steps"] = {static_cast<double>(plain.steps.count()), "count"};

  const std::int64_t traced_steps = traced.steps.count();
  if (traced_steps == 0 || plain.walls.empty()) return out;
  w.layer_metrics(summary, traced_steps, static_cast<int>(traced.walls.size()),
                  out);

  auto& m = out.per_layer;
  const double n = static_cast<double>(traced_steps);
  m["trace_overhead"].value = median(traced.walls) / median(plain.walls);
  const double step_total = summary.get(0, kStepSpan, kStepSpan).total_ms;
  const auto self = summary.layer_self_ms(0, kStepSpan);
  double covered = 0.0;
  for (const auto& [layer, self_ms] : self) {
    if (layer != "bench") covered += self_ms;
  }
  m["trace.coverage"].value = step_total > 0.0 ? covered / step_total : 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    m[std::string("layer.") + layer + ".self_ms"].value =
        it == self.end() ? 0.0 : it->second / n;
  }
  out.detail["reps_traced"] = {static_cast<double>(traced.walls.size()),
                               "count"};

  // The per-layer table: self time per step for every rank.
  char line[160];
  std::snprintf(line, sizeof line, "trace summary: %s, %lld traced steps",
                cfg.workload.c_str(), static_cast<long long>(traced_steps));
  out.lines.emplace_back(line);
  for (const auto& [rank, by_root] : summary.stats) {
    const auto step_it = by_root.find(kStepSpan);
    if (step_it == by_root.end()) continue;
    for (const auto& [name, st] : step_it->second) {
      std::snprintf(line, sizeof line,
                    "  rank %d  %-34s self %10.4f ms/step  total %10.4f "
                    "ms/step  calls %10.2f/step",
                    rank, name.c_str(), st.self_ms / n, st.total_ms / n,
                    static_cast<double>(st.count) / n);
      out.lines.emplace_back(line);
    }
  }
  if (!cfg.trace_out.empty() &&
      !write_chrome_trace(cfg.trace_out, cfg.workload, kept)) {
    std::fprintf(stderr, "perfbench: could not write trace %s\n",
                 cfg.trace_out.c_str());
  }
  return out;
}

}  // namespace perfbench
