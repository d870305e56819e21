// The benchmark's own spans: recorded from outside the library, around the
// public calls the workloads make into each layer. A span has a name of the
// form "<layer>.<what>", a start and end, its parent (the span open on the
// same rank thread when it began), the workload and the rank. Spans are kept
// in memory per rank and summarised between repetitions; nothing is written
// until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Root span names: every repetition opens one setup span per rank and
/// one span per step, and layer spans nest under them.
inline constexpr const char* kSetupSpan = "bench.setup";
inline constexpr const char* kStepSpan = "bench.step";

struct SpanRecord {
  const char* name;  // string literal, "<layer>.<what>"
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index in the same rank's buffer, -1 for a root
};

/// Spans of one rank thread; only that thread appends.
struct SpanBuffer {
  int rank = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
};

/// Per-repetition span store. The main thread calls begin_rep() before a
/// world starts, and end_rep() plus TraceSummary::add(buffers()) after it
/// has joined; each rank thread calls attach(rank) first thing, which routes
/// its Spans into that rank's buffer. Outside begin_rep/end_rep, attach()
/// leaves the thread unrouted and every Span is a single branch.
class Tracer {
 public:
  void begin_rep(int nranks);
  void attach(int rank);
  /// Stops routing; the buffers stay readable until the next begin_rep.
  void end_rep() { active_ = false; }
  const std::vector<SpanBuffer>& buffers() const { return buffers_; }

 private:
  std::vector<SpanBuffer> buffers_;
  bool active_ = false;
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer* buf_ = nullptr;
  std::int32_t idx_ = -1;
};

/// Duration distribution in constant memory: log-spaced buckets 2^(1/128)
/// wide (0.54 %) from 1e-4 ms up, so a run's memory does not grow with the
/// number of steps it measures. Quantiles interpolate inside a bucket.
class Histogram {
 public:
  void add(double ms);
  double quantile(double q) const;
  std::int64_t count() const { return n_; }

 private:
  static constexpr int kPerOctave = 128;
  static constexpr int kOctaves = 40;
  static constexpr double kMinMs = 1e-4;
  std::vector<std::int64_t> counts_ =
      std::vector<std::int64_t>(kOctaves * kPerOctave, 0);
  std::int64_t n_ = 0;
};

/// Per span name, summed over the spans of one rank under one root name.
struct NameStats {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // duration minus the time its child spans cover
};

/// Running summary of every traced repetition of a run.
struct TraceSummary {
  // rank -> root span name -> span name -> stats
  std::map<int, std::map<std::string, std::map<std::string, NameStats>>> stats;
  // Rank-0 durations of the span names listed in `sampled`, inside steps,
  // for percentiles.
  std::set<std::string> sampled;
  std::map<std::string, Histogram> samples;

  /// Folds one repetition's buffers in.
  void add(const std::vector<SpanBuffer>& buffers);
  /// Stats of `name` on `rank` under root `root` (zeros when absent).
  NameStats get(int rank, const std::string& root,
                const std::string& name) const;
  /// Self time per layer ("<layer>" prefix of the span name) of `rank`'s
  /// spans under `root`.
  std::map<std::string, double> layer_self_ms(int rank,
                                              const std::string& root) const;
};

/// Writes buffers as a Chrome trace-event JSON file (open it in
/// chrome://tracing or Perfetto), at most the first kMaxWrittenSpans spans
/// of each rank. Returns false when the file cannot be written.
inline constexpr std::size_t kMaxWrittenSpans = 20000;
bool write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<SpanBuffer>& buffers);

}  // namespace perfbench
