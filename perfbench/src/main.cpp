// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload fig2_imex|redistribute|service --seed N
//             --seconds S --trace 0|1 [--scale full|tiny] [--trace-out FILE]
//
// It repeats the workload's job (one world from start to join) for S
// seconds, checks every output, and prints a summary followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 turns on the benchmark's spans around
// every layer call and reports the per-layer metrics instead. --scale tiny
// runs one repetition of a tiny problem (the self-test).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

// Every metric the benchmark prints, with its unit. A run prints all of
// one list; a per-layer metric of a layer the workload does not run reads 0.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"step_ms.p50", "ms"},
    {"step_ms.p99", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    // fig2_imex: set-up
    {"odin.init_ms", "ms"},
    {"tpetra.assemble_ms", "ms"},
    {"precond.amg_setup_ms", "ms"},
    {"seamless.jit_compile_ms", "ms"},
    // fig2_imex: steps
    {"precond.amg_apply_ms", "ms/step"},
    {"precond.amg_apply_calls", "count/step"},
    {"tpetra.spmv_ms", "ms/step"},
    {"tpetra.spmv_calls", "count/step"},
    {"tpetra.spmv_gbps", "GB/s"},
    {"tpetra.vector_ms", "ms/step"},
    {"solvers.cg_self_ms", "ms/step"},
    {"solvers.iterations", "count/step"},
    {"seamless.model_ms", "ms/step"},
    {"comm.p2p_messages", "count/step"},
    {"comm.p2p_bytes", "B/step"},
    {"comm.collectives", "count/step"},
    {"util.pool.tasks", "count/step"},
    {"util.pool.steals", "count/step"},
    {"precond.amg_levels", "count"},
    {"precond.amg_op_complexity", "ratio"},
    // redistribute
    {"odin.plan_ms", "ms/step"},
    {"odin.redistribute_ms.cyclic", "ms/step"},
    {"odin.redistribute_ms.block_cyclic", "ms/step"},
    {"odin.redistribute_ms.explicit", "ms/step"},
    {"odin.redistribute_ms.replicated", "ms/step"},
    {"odin.redistribute_ms.block", "ms/step"},
    {"odin.redistribute_ms.axis2d", "ms/step"},
    {"odin.elements_moved", "count/step"},
    {"odin.exchange_gbps", "GB/s"},
    {"comm.coll_messages", "count/step"},
    {"comm.coll_bytes", "B/step"},
    {"comm.bytes_copied", "B/step"},
    {"comm.zero_copy_bytes", "B/step"},
    // service
    {"odin.service.submit_us", "us"},
    {"odin.service.sync_us.p50", "us"},
    {"odin.service.sync_us.p99", "us"},
    {"odin.driver.payloads_per_round", "count"},
    {"odin.driver.control_bytes_per_round", "B"},
    {"odin.service.msgs_per_payload", "ratio"},
    {"util.setup_cache.hit_rate", "ratio"},
    {"comm.p2p_messages_per_round", "count"},
    {"comm.arena_hits", "count/rep"},
    {"comm.arena_misses", "count/rep"},
    {"comm.retries", "count/rep"},
    {"comm.timeouts", "count/rep"},
    // every workload: the trace itself
    {"trace_overhead", "ratio"},
    {"trace.coverage", "ratio"},
    {"layer.bench.self_ms", "ms/step"},
    {"layer.odin.self_ms", "ms/step"},
    {"layer.tpetra.self_ms", "ms/step"},
    {"layer.precond.self_ms", "ms/step"},
    {"layer.solvers.self_ms", "ms/step"},
    {"layer.seamless.self_ms", "ms/step"},
};

// Host controls: a fixed CPU-bound loop and one memory-streaming pass over
// arrays four times the size of a 32 MiB last-level cache. Diagnostics for
// reading a run's noise, never gated.
volatile double g_sink = 0.0;

double cpu_control_ms() {
  const std::int64_t t0 = now_ns();
  double x = g_sink + 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 0.999999 + 1e-6;
  g_sink = x;
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

double stream_control_ms() {
  const std::size_t n = std::size_t{8} << 20;  // 2 × 64 MiB
  std::vector<double> a(n), b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i & 1023);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) b[i] = 3.0 * a[i] + g_sink;
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; i += 4096) sum += b[i];
  g_sink = sum * 1e-300;
  return ms;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig2_imex|redistribute|service --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(cfg.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        usage("--scale takes full or tiny");
      }
      cfg.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return cfg;
}

void print_metrics(std::FILE* out, const std::map<std::string, Metric>& m) {
  std::fputc('{', out);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(), metric.value,
                 metric.unit.c_str());
    first = false;
  }
  std::fputc('}', out);
}

// Keeps exactly the listed metrics, with their units; a listed metric the
// workload did not set reads 0. Returns false if any value is not finite.
template <std::size_t N>
bool finish(std::map<std::string, Metric>& m,
            const std::pair<const char*, const char*> (&table)[N]) {
  std::map<std::string, Metric> out;
  bool finite = true;
  for (const auto& [name, unit] : table) {
    const auto it = m.find(name);
    const double v = it == m.end() ? 0.0 : it->second.value;
    finite = finite && std::isfinite(v);
    out[name] = Metric{std::isfinite(v) ? v : 0.0, unit};
  }
  for (const auto& [name, metric] : m) {
    if (out.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      std::abort();
    }
  }
  m = std::move(out);
  return finite;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const RunConfig cfg = parse(argc, argv);

  // Every measured run uses the library's defaults. _Exit, because the
  // library's PYHPC_TRACE hook would otherwise write a trace file at exit.
  for (const char* var : {"PYHPC_THREADS", "PYHPC_EXEC_SPACE", "PYHPC_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      std::_Exit(2);
    }
  }

  std::unique_ptr<Workload> w;
  if (cfg.workload == "fig2_imex") {
    w = make_fig2_imex(cfg);
  } else if (cfg.workload == "redistribute") {
    w = make_redistribute(cfg);
  } else if (cfg.workload == "service") {
    w = make_service(cfg);
  } else {
    usage(("unknown workload " + cfg.workload).c_str());
  }

  // Thread budget: rank threads times pool lanes (every client runs on a
  // rank thread) must fit the CPUs this process may use.
  const int threads = w->ranks() * w->lanes();
  const int cpus = usable_cpus();
  if (threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d threads (%d ranks x %d lanes) but "
                 "only %d CPUs are usable\n",
                 cfg.workload.c_str(), threads, w->ranks(), w->lanes(), cpus);
    return 2;
  }

  Report r = run_workload(*w, cfg);
  r.detail["host.ctrl_ms.cpu"] = {cpu_control_ms(), "ms"};
  r.detail["host.ctrl_ms.stream"] = {stream_control_ms(), "ms"};
  r.detail["ops"] = {static_cast<double>(r.attempted), "count"};
  r.detail["ops_failed"] = {static_cast<double>(r.failed), "count"};

  bool finite = finish(r.end_to_end, kEndToEnd);
  if (cfg.trace) finite = finish(r.per_layer, kPerLayer) && finite;
  const bool correct =
      r.failed == 0 && r.attempted > 0 && r.error.empty() && finite;

  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 r.error.c_str());
  }
  for (const auto& line : r.lines) std::printf("%s\n", line.c_str());
  if (cfg.trace) {
    std::printf("end-to-end (untraced half of this run): ");
    print_metrics(stdout, r.end_to_end);
    std::printf("\n");
  }
  std::printf("detail: ");
  print_metrics(stdout, r.detail);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": ",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  print_metrics(stdout, cfg.trace ? r.per_layer : r.end_to_end);
  std::printf("}\n");
  return correct ? 0 : 1;
}
