#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

thread_local SpanBuffer* t_buffer = nullptr;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void Tracer::begin_rep(int nranks) {
  buffers_.assign(static_cast<std::size_t>(nranks), SpanBuffer{});
  for (int r = 0; r < nranks; ++r) {
    auto& b = buffers_[static_cast<std::size_t>(r)];
    b.rank = r;
    b.spans.reserve(1 << 16);
  }
  active_ = true;
}

void Tracer::attach(int rank) {
  t_buffer = active_ ? &buffers_[static_cast<std::size_t>(rank)] : nullptr;
}

Span::Span(const char* name) {
  SpanBuffer* b = t_buffer;
  if (b == nullptr) return;
  buf_ = b;
  idx_ = static_cast<std::int32_t>(b->spans.size());
  const std::int32_t parent = b->open.empty() ? -1 : b->open.back();
  b->open.push_back(idx_);
  b->spans.push_back(SpanRecord{name, now_ns(), 0, parent});
}

Span::~Span() {
  if (buf_ == nullptr) return;
  buf_->spans[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  buf_->open.pop_back();
}

void Histogram::add(double ms) {
  const double pos = std::log2(std::max(ms, kMinMs) / kMinMs) * kPerOctave;
  const auto last = static_cast<double>(counts_.size() - 1);
  ++counts_[static_cast<std::size_t>(std::min(pos, last))];
  ++n_;
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double rank = q * static_cast<double>(n_ - 1);  // 0-based
  std::int64_t below = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int64_t c = counts_[i];
    if (c > 0 && static_cast<double>(below + c) > rank) {
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(c);
      return kMinMs * std::exp2((static_cast<double>(i) + within) / kPerOctave);
    }
    below += c;
  }
  return 0.0;
}

void TraceSummary::add(const std::vector<SpanBuffer>& buffers) {
  for (const auto& b : buffers) {
    const auto n = b.spans.size();
    std::vector<std::int64_t> child_ns(n, 0);
    std::vector<std::int32_t> root(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = b.spans[i];
      if (s.parent < 0) {
        root[i] = static_cast<std::int32_t>(i);
      } else {
        const auto p = static_cast<std::size_t>(s.parent);
        root[i] = root[p];
        child_ns[p] += s.end_ns - s.start_ns;
      }
    }
    auto& by_root = stats[b.rank];
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = b.spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::string root_name =
          b.spans[static_cast<std::size_t>(root[i])].name;
      auto& st = by_root[root_name][s.name];
      ++st.count;
      st.total_ms += static_cast<double>(dur) * 1e-6;
      st.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
      if (b.rank == 0 && root_name == kStepSpan && sampled.count(s.name) != 0) {
        samples[s.name].add(static_cast<double>(dur) * 1e-6);
      }
    }
  }
}

NameStats TraceSummary::get(int rank, const std::string& root,
                            const std::string& name) const {
  const auto r = stats.find(rank);
  if (r == stats.end()) return {};
  const auto t = r->second.find(root);
  if (t == r->second.end()) return {};
  const auto s = t->second.find(name);
  return s == t->second.end() ? NameStats{} : s->second;
}

std::map<std::string, double> TraceSummary::layer_self_ms(
    int rank, const std::string& root) const {
  std::map<std::string, double> out;
  const auto r = stats.find(rank);
  if (r == stats.end()) return out;
  const auto t = r->second.find(root);
  if (t == r->second.end()) return out;
  for (const auto& [name, st] : t->second) out[layer_of(name)] += st.self_ms;
  return out;
}

bool write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<SpanBuffer>& buffers) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::int64_t t0 = 0;
  for (const auto& b : buffers) {
    if (!b.spans.empty() && (t0 == 0 || b.spans.front().start_ns < t0)) {
      t0 = b.spans.front().start_ns;
    }
  }
  std::fputs("{\"traceEvents\":[", f.get());
  bool first = true;
  for (const auto& b : buffers) {
    const std::size_t n = std::min(b.spans.size(), kMaxWrittenSpans);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = b.spans[i];
      std::fprintf(f.get(),
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"workload\":\"%s\",\"rank\":%d}}",
                   first ? "" : ",", s.name, layer_of(s.name).c_str(), b.rank,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, workload.c_str(), b.rank);
      first = false;
    }
  }
  std::fputs("\n]}\n", f.get());
  const bool ok = std::ferror(f.get()) == 0;
  return std::fclose(f.release()) == 0 && ok;
}

}  // namespace perfbench
