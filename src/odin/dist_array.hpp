// DistArray<T>: ODIN's distributed N-dimensional array.
//
// Global mode (paper §III.B): creation routines and whole-array operations
// that "feel very much like regular NumPy arrays, even though computations
// are carried out in a distributed fashion". Local mode (§III.C) lives in
// odin/local.hpp; slicing in odin/slicing.hpp; lazy fused expressions in
// odin/expr.hpp.
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "odin/distribution.hpp"
#include "odin/shape.hpp"
#include "util/default_init.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"
#include "util/ufunc_loop.hpp"

namespace pyhpc::odin {

/// Which operand to redistribute when a binary op meets non-conformable
/// arrays (§III.D: ODIN "will choose a strategy that will minimize
/// communication, while allowing the knowledgeable user to modify its
/// behavior").
enum class ConformStrategy {
  kAuto,   // measure both directions, move the cheaper one
  kLeft,   // redistribute the left operand to the right's layout
  kRight,  // redistribute the right operand to the left's layout
};

/// The strategy operator sugar (a + b, ufuncs without an explicit strategy
/// argument) uses on this thread. Per rank-thread, so each rank of a
/// parallel region can scope its own override.
ConformStrategy default_conform_strategy();

/// Scoped override — the C++ shape of the paper's "allowing the
/// knowledgeable user to modify its behavior via Python context managers
/// and function decorators" (§III.D):
///
///   { odin::ConformStrategyScope scope(odin::ConformStrategy::kRight);
///     auto c = a + b;   // redistributes b, no measuring pass
///   }
class ConformStrategyScope {
 public:
  explicit ConformStrategyScope(ConformStrategy strategy);
  ~ConformStrategyScope();
  ConformStrategyScope(const ConformStrategyScope&) = delete;
  ConformStrategyScope& operator=(const ConformStrategyScope&) = delete;

 private:
  ConformStrategy saved_;
};

template <class T = double>
class DistArray {
 public:
  using value_type = T;

  /// Zero-initialized array over a distribution.
  explicit DistArray(Distribution dist)
      : dist_(std::make_shared<Distribution>(std::move(dist))),
        data_(static_cast<std::size_t>(dist_->local_count()), T{}) {}

  DistArray(Distribution dist, T fill)
      : dist_(std::make_shared<Distribution>(std::move(dist))),
        data_(static_cast<std::size_t>(dist_->local_count()), fill) {}

  /// Result-array factory for single-pass kernels (map, zip, fused eval,
  /// where, creation fills, and redistribute, whose receive walk writes
  /// each local element exactly once after checking every part's length
  /// against its plan): the local buffer is allocated but NOT zero-filled,
  /// so the writing kernel's stores are the buffer's first touch instead
  /// of a second pass over freshly memset pages. Call-site rule: every
  /// local element must be written before it can be read — anything with
  /// partial coverage (slicing) takes the zeroing constructor instead.
  static DistArray uninitialized(Distribution dist) {
    return DistArray(std::move(dist), Uninit{});
  }

  const Distribution& dist() const { return *dist_; }
  const Shape& shape() const { return dist_->global_shape(); }
  int ndim() const { return dist_->ndim(); }
  index_t size() const { return shape().count(); }
  Shape local_shape() const { return dist_->local_shape(); }
  index_t local_size() const { return static_cast<index_t>(data_.size()); }

  std::span<T> local_view() { return data_; }
  std::span<const T> local_view() const { return data_; }

  T& local_at(index_t linear) { return data_[static_cast<std::size_t>(linear)]; }
  const T& local_at(index_t linear) const {
    return data_[static_cast<std::size_t>(linear)];
  }

  // ---- creation (global mode) ------------------------------------------

  static DistArray zeros(Distribution dist) {
    return DistArray(std::move(dist), T{});
  }
  static DistArray ones(Distribution dist) {
    return DistArray(std::move(dist), T{1});
  }
  static DistArray full(Distribution dist, T value) {
    return DistArray(std::move(dist), value);
  }

  /// 1D arange [start, start + n*step) over an existing distribution.
  static DistArray arange(Distribution dist, T start = T{0}, T step = T{1}) {
    DistArray a(std::move(dist), Uninit{});
    a.fill_from_global([&](const std::vector<index_t>& g) {
      return start + static_cast<T>(g.back()) * step;
    });
    return a;
  }

  /// NumPy-style linspace over a 1D distribution (inclusive endpoints).
  static DistArray linspace(Distribution dist, T lo, T hi) {
    require<ShapeError>(dist.ndim() == 1, "linspace: needs a 1D distribution");
    const index_t n = dist.global_shape().extent(0);
    DistArray a(std::move(dist), Uninit{});
    const T step = n > 1 ? (hi - lo) / static_cast<T>(n - 1) : T{0};
    a.fill_from_global([&](const std::vector<index_t>& g) {
      return lo + static_cast<T>(g[0]) * step;
    });
    return a;
  }

  /// Deterministic uniform [0,1) fill; mirrors the paper's description of
  /// odin.rand: each node seeds its own stream from (seed, rank) and no
  /// array data crosses the wire.
  static DistArray random(Distribution dist, std::uint64_t seed = 0) {
    DistArray a(std::move(dist), Uninit{});
    util::Xoshiro256 rng(seed, static_cast<std::uint64_t>(a.dist().rank()));
    for (auto& x : a.data_) x = static_cast<T>(rng.next_double());
    return a;
  }

  /// Evaluates f(global multi-index) on every local element.
  static DistArray fromfunction(
      Distribution dist, const std::function<T(const std::vector<index_t>&)>& f) {
    DistArray a(std::move(dist), Uninit{});
    a.fill_from_global(f);
    return a;
  }

  // ---- elementwise (local, no communication when conformable) -----------

  /// In-place transform of every local element: the ufunc loop
  /// (util/ufunc_loop.hpp) over the contiguous local buffer. Above one
  /// grain of elements the task pool schedules the chunks, below it the
  /// loop runs inline.
  template <class F>
  void transform(F&& f) {
    T* d = data_.data();
    util::ufunc_map(d, d, static_cast<std::int64_t>(data_.size()),
                    util::kDefaultGrain, f);
  }

  /// New array g(this) with the same distribution (unary ufunc kernel;
  /// dispatched like transform).
  template <class F>
  DistArray map(F&& f) const {
    DistArray out = uninitialized(*dist_);
    util::ufunc_map(data_.data(), out.data_.data(),
                    static_cast<std::int64_t>(data_.size()),
                    util::kDefaultGrain, f);
    return out;
  }

  /// New array f(this, other); non-conformable operands are redistributed
  /// according to `strategy` first (collective in that case).
  template <class F>
  DistArray zip(const DistArray& other, F&& f,
                ConformStrategy strategy = ConformStrategy::kAuto) const;

  // ---- reductions (collective) ------------------------------------------

  /// Local fold then allreduce. The local fold runs as the task pool's
  /// deterministic chunked reduction: chunk boundaries depend only on the
  /// grain (never the thread count), each chunk folds left-to-right, and
  /// partials merge in a fixed pairwise tree — so the result is
  /// bit-identical for any thread count, and equal to the plain serial
  /// fold whenever the local part fits in one chunk.
  template <class F>
  T reduce(T init, F&& op) const {
    const T* d = data_.data();
    const auto n = static_cast<std::int64_t>(data_.size());
    T acc = init;
    if (n > 0) {
      acc = util::parallel_reduce(
          0, n, util::kDefaultGrain, init,
          [&op, &init, d](std::int64_t lo, std::int64_t hi) {
            T a = lo == 0 ? init : d[lo];
            for (std::int64_t i = lo == 0 ? lo : lo + 1; i < hi; ++i) {
              a = op(a, d[i]);
            }
            return a;
          },
          [&op](T a, T b) { return op(std::move(a), std::move(b)); });
    }
    return dist_->comm().allreduce_value(acc, op);
  }

  T sum() const {
    return reduce(T{0}, std::plus<T>{});
  }

  // min/max/mean are undefined on a globally empty array; like
  // argmin/argmax they throw rather than returning numeric_limits
  // sentinels (or NaN). A rank whose *local* part is empty still
  // participates normally — its sentinel never wins the reduction because
  // some other rank holds real data.
  T min() const {
    require<NumericalError>(size() != 0, "min: empty array");
    const T* d = data_.data();
    const auto n = static_cast<std::int64_t>(data_.size());
    T acc = std::numeric_limits<T>::max();
    if (n > 0) {
      acc = util::parallel_reduce(
          0, n, util::kDefaultGrain, acc,
          [d](std::int64_t lo, std::int64_t hi) {
            T a = d[lo];
            for (std::int64_t i = lo + 1; i < hi; ++i) a = std::min(a, d[i]);
            return a;
          },
          [](T a, T b) { return std::min(a, b); });
    }
    return dist_->comm().allreduce_value(
        acc, [](T a, T b) { return std::min(a, b); });
  }

  T max() const {
    require<NumericalError>(size() != 0, "max: empty array");
    const T* d = data_.data();
    const auto n = static_cast<std::int64_t>(data_.size());
    T acc = std::numeric_limits<T>::lowest();
    if (n > 0) {
      acc = util::parallel_reduce(
          0, n, util::kDefaultGrain, acc,
          [d](std::int64_t lo, std::int64_t hi) {
            T a = d[lo];
            for (std::int64_t i = lo + 1; i < hi; ++i) a = std::max(a, d[i]);
            return a;
          },
          [](T a, T b) { return std::max(a, b); });
    }
    return dist_->comm().allreduce_value(
        acc, [](T a, T b) { return std::max(a, b); });
  }

  double mean() const {
    require<NumericalError>(size() != 0, "mean: empty array");
    return static_cast<double>(sum()) / static_cast<double>(size());
  }

  double norm2() const {
    const T* d = data_.data();
    const double acc = util::parallel_reduce(
        0, static_cast<std::int64_t>(data_.size()), util::kDefaultGrain, 0.0,
        [d](std::int64_t lo, std::int64_t hi) {
          double a = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) {
            a += static_cast<double>(d[i]) * static_cast<double>(d[i]);
          }
          return a;
        },
        [](double a, double b) { return a + b; });
    return std::sqrt(dist_->comm().allreduce_value(acc, std::plus<double>{}));
  }

  /// Global multi-index of the minimum value (ties: lowest global linear
  /// index). Collective.
  std::vector<index_t> argmin() const { return arg_extreme(true); }
  std::vector<index_t> argmax() const { return arg_extreme(false); }

  // ---- global element access (collective) -------------------------------

  /// Every rank receives the value at `gidx` (broadcast from the owner).
  T get_global(const std::vector<index_t>& gidx) const {
    const auto [owner, lidx] = dist_->owner_of(gidx);
    T value{};
    if (dist_->rank() == owner) {
      value = data_[static_cast<std::size_t>(lidx)];
    }
    return dist_->comm().broadcast_value(value, owner);
  }

  /// Every rank calls; the owner stores. Collective only by convention
  /// (no traffic).
  void set_global(const std::vector<index_t>& gidx, T value) {
    const auto [owner, lidx] = dist_->owner_of(gidx);
    if (dist_->rank() == owner) {
      data_[static_cast<std::size_t>(lidx)] = value;
    }
  }

  /// Replicates the full array on every rank in global row-major order
  /// (collective; test/interop helper).
  std::vector<T> gather() const {
    struct Entry {
      index_t linear;
      T value;
    };
    const auto strides = shape().strides();
    std::vector<Entry> mine;
    mine.reserve(data_.size());
    for_each_global([&](std::size_t l, const std::vector<index_t>& gidx) {
      index_t lin = 0;
      for (std::size_t a = 0; a < gidx.size(); ++a) lin += gidx[a] * strides[a];
      mine.push_back(Entry{lin, data_[l]});
    });
    auto chunks = dist_->comm().allgatherv(std::span<const Entry>(mine));
    std::vector<T> out(static_cast<std::size_t>(size()), T{});
    for (const auto& chunk : chunks) {
      for (const auto& e : chunk) {
        out[static_cast<std::size_t>(e.linear)] = e.value;
      }
    }
    return out;
  }

  /// Calls f(l, global multi-index) for every local element l in local
  /// order, walking an odometer over the per-axis global indices: one
  /// index vector, updated only on the axes that move, so nothing is
  /// allocated per element.
  template <class F>
  void for_each_global(F&& f) const {
    if (data_.empty()) return;
    const auto axes = dist_->local_axis_globals();
    std::vector<index_t> gidx(axes.size());
    std::vector<std::size_t> lidx(axes.size(), 0);
    for (std::size_t a = 0; a < axes.size(); ++a) gidx[a] = axes[a][0];
    for (std::size_t l = 0; l < data_.size(); ++l) {
      f(l, std::as_const(gidx));
      for (std::size_t a = axes.size(); a-- > 0;) {
        if (++lidx[a] < axes[a].size()) {
          gidx[a] = axes[a][lidx[a]];
          break;
        }
        lidx[a] = 0;
        gidx[a] = axes[a][0];
      }
    }
  }

  /// Calls f(global_start, local_start, length) for each maximal run of
  /// local elements at consecutive row-major global offsets, in local
  /// order: the pieces file and checkpoint I/O move in one call each.
  template <class F>
  void for_each_global_run(F&& f) const {
    const auto strides = shape().strides();
    index_t run_global = 0, run_local = 0, run_len = 0;
    for_each_global([&](std::size_t l, const std::vector<index_t>& gidx) {
      index_t g = 0;
      for (std::size_t a = 0; a < gidx.size(); ++a) g += gidx[a] * strides[a];
      if (run_len > 0 && g == run_global + run_len) {
        ++run_len;
        return;
      }
      if (run_len > 0) f(run_global, run_local, run_len);
      run_global = g;
      run_local = static_cast<index_t>(l);
      run_len = 1;
    });
    if (run_len > 0) f(run_global, run_local, run_len);
  }

 private:
  struct Uninit {};
  DistArray(Distribution dist, Uninit)
      : dist_(std::make_shared<Distribution>(std::move(dist))),
        data_(static_cast<std::size_t>(dist_->local_count())) {}

  /// Elementwise f over operands already known to be conformable.
  template <class F>
  DistArray zip_local(const DistArray& other, F&& f) const {
    DistArray out = uninitialized(*dist_);
    util::ufunc_zip(data_.data(), other.data_.data(), out.data_.data(),
                    static_cast<std::int64_t>(data_.size()),
                    util::kDefaultGrain, f);
    return out;
  }

  /// Stores f(global multi-index) into every local element.
  template <class F>
  void fill_from_global(F&& f) {
    for_each_global([&](std::size_t l, const std::vector<index_t>& gidx) {
      data_[l] = f(gidx);
    });
  }

  std::vector<index_t> arg_extreme(bool want_min) const {
    struct Best {
      T value;
      index_t linear;
    };
    const auto strides = shape().strides();
    Best best{want_min ? std::numeric_limits<T>::max()
                       : std::numeric_limits<T>::lowest(),
              std::numeric_limits<index_t>::max()};
    for_each_global([&](std::size_t l, const std::vector<index_t>& gidx) {
      const T v = data_[l];
      const bool better = want_min ? v < best.value : v > best.value;
      if (!better) return;
      index_t lin = 0;
      for (std::size_t a = 0; a < gidx.size(); ++a) lin += gidx[a] * strides[a];
      best = Best{v, lin};
    });
    auto all = dist_->comm().allgather_value(best);
    Best global = all.front();
    for (const auto& b : all) {
      const bool better =
          want_min ? (b.value < global.value ||
                      (b.value == global.value && b.linear < global.linear))
                   : (b.value > global.value ||
                      (b.value == global.value && b.linear < global.linear));
      if (better) global = b;
    }
    require<NumericalError>(global.linear != std::numeric_limits<index_t>::max(),
                            "argmin/argmax: empty array");
    return shape().delinearize(global.linear);
  }

  std::shared_ptr<Distribution> dist_;
  // DefaultInitAllocator so the Uninit path can skip the zero-fill; the
  // public constructors pass an explicit fill value and are unaffected.
  std::vector<T, util::DefaultInitAllocator<T>> data_;
};

/// Moves an array onto a new distribution of the same global shape over
/// the same communicator. Collective: one zero-copy alltoallv that
/// carries values only (the linear schedule, like tpetra Import/Export).
/// Each rank sends its elements to their owners under `target` in local
/// order (only the canonical copy of a fully replicated source sends; a
/// fully replicated target receives every element on every rank). Each
/// receiver runs the plan the other way,
/// redistribution_targets(target, from), to learn the source of each of
/// its elements, and — local order rising with global index on both sides
/// — takes the values with one cursor per source.
template <class T>
DistArray<T> redistribute(const DistArray<T>& a, const Distribution& target) {
  const Distribution& from = a.dist();
  const std::vector<int> targets = redistribution_targets(from, target);
  auto& comm = from.comm();
  const auto p = static_cast<std::size_t>(comm.size());

  obs::Span span("redistribute", "odin");
  if (span.active()) {
    span.arg("elements", static_cast<std::int64_t>(a.size()));
    span.arg("bytes", static_cast<std::int64_t>(
                          static_cast<std::size_t>(a.local_size()) * sizeof(T)));
  }

  const auto values = a.local_view();
  std::vector<std::vector<T>> parts(p);
  if (!from.fully_replicated() || comm.rank() == 0) {
    if (target.fully_replicated()) {
      for (auto& part : parts) part.assign(values.begin(), values.end());
    } else {
      std::vector<std::size_t> count(p, 0);
      for (const int t : targets) ++count[static_cast<std::size_t>(t)];
      for (std::size_t r = 0; r < p; ++r) parts[r].reserve(count[r]);
      for (std::size_t l = 0; l < targets.size(); ++l) {
        parts[static_cast<std::size_t>(targets[l])].push_back(values[l]);
      }
    }
  }
  auto incoming = comm.alltoallv(std::move(parts));

  const std::vector<int> sources = redistribution_targets(target, from);
  std::vector<std::size_t> cursor(p, 0);
  for (const int s : sources) ++cursor[static_cast<std::size_t>(s)];
  for (std::size_t s = 0; s < p; ++s) {
    require<CommError>(incoming[s].size() == cursor[s], "redistribute: rank ",
                       s, " sent ", incoming[s].size(),
                       " values but the plan expects ", cursor[s]);
    cursor[s] = 0;
  }
  DistArray<T> out = DistArray<T>::uninitialized(target);
  const auto dst = out.local_view();
  for (std::size_t l = 0; l < sources.size(); ++l) {
    const auto s = static_cast<std::size_t>(sources[l]);
    dst[l] = incoming[s][cursor[s]++];
  }
  return out;
}

/// Estimated communication cost (elements leaving their rank) of moving
/// `a` onto `target`: the sum over ranks of redistribution_local_cost.
/// Collective. Used by the kAuto conform strategy — the paper's
/// "expression analysis to select the appropriate communication strategy".
template <class T>
index_t redistribution_cost(const DistArray<T>& a, const Distribution& target) {
  return a.dist().comm().allreduce_value(
      redistribution_local_cost(a.dist(), target), std::plus<index_t>{});
}

template <class T>
template <class F>
DistArray<T> DistArray<T>::zip(const DistArray& other, F&& f,
                               ConformStrategy strategy) const {
  require<ShapeError>(shape() == other.shape(),
                      "zip: shapes differ: ", shape(), " vs ", other.shape());
  if (dist_->conformable(other.dist())) return zip_local(other, f);
  // Non-conformable: align layouts first.
  switch (strategy) {
    case ConformStrategy::kRight:
      return zip_local(redistribute(other, *dist_), f);
    case ConformStrategy::kLeft:
      return redistribute(*this, other.dist()).zip_local(other, f);
    case ConformStrategy::kAuto: {
      // Both directions are measured from the plan redistribute runs, and
      // one two-element allreduce sums them; the chosen operand is then
      // redistributed directly.
      obs::Span span("zip.auto_conform", "odin");
      const index_t local[2] = {  // elements leaving their rank: [this, other]
          redistribution_local_cost(*dist_, other.dist()),
          redistribution_local_cost(other.dist(), *dist_)};
      index_t costs[2] = {0, 0};
      dist_->comm().allreduce(std::span<const index_t>(local, 2),
                              std::span<index_t>(costs, 2),
                              std::plus<index_t>{});
      const bool move_right = costs[1] <= costs[0];  // same tie-break as before
      if (span.active()) {
        span.arg("cost_left", static_cast<std::int64_t>(costs[0]));
        span.arg("cost_right", static_cast<std::int64_t>(costs[1]));
        span.arg("chosen", move_right ? "right" : "left");
      }
      if (move_right) return zip_local(redistribute(other, *dist_), f);
      return redistribute(*this, other.dist()).zip_local(other, f);
    }
  }
  throw InvalidArgument("zip: unknown conform strategy");
}

// ---- operator sugar (NumPy-feel arithmetic) ------------------------------

template <class T>
DistArray<T> operator+(const DistArray<T>& a, const DistArray<T>& b) {
  return a.zip(b, std::plus<T>{}, default_conform_strategy());
}
template <class T>
DistArray<T> operator-(const DistArray<T>& a, const DistArray<T>& b) {
  return a.zip(b, std::minus<T>{}, default_conform_strategy());
}
template <class T>
DistArray<T> operator*(const DistArray<T>& a, const DistArray<T>& b) {
  return a.zip(b, std::multiplies<T>{}, default_conform_strategy());
}
template <class T>
DistArray<T> operator/(const DistArray<T>& a, const DistArray<T>& b) {
  return a.zip(b, std::divides<T>{}, default_conform_strategy());
}
template <class T>
DistArray<T> operator+(const DistArray<T>& a, T s) {
  return a.map([s](T x) { return x + s; });
}
template <class T>
DistArray<T> operator-(const DistArray<T>& a, T s) {
  return a.map([s](T x) { return x - s; });
}
template <class T>
DistArray<T> operator*(const DistArray<T>& a, T s) {
  return a.map([s](T x) { return x * s; });
}
template <class T>
DistArray<T> operator/(const DistArray<T>& a, T s) {
  return a.map([s](T x) { return x / s; });
}
template <class T>
DistArray<T> operator*(T s, const DistArray<T>& a) {
  return a * s;
}

}  // namespace pyhpc::odin
