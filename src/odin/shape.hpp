// Shape and slice primitives for ODIN distributed arrays.
//
// Shapes are vectors of extents (row-major layout everywhere); Slice
// reproduces Python/NumPy slice semantics including negative indices and
// steps, because the paper's §III.G examples (`y[1:] - y[:-1]`) are written
// in exactly that vocabulary.
#pragma once

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::odin {

using index_t = std::int64_t;

/// Row-major extents.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<index_t> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<index_t> dims) : dims_(std::move(dims)) {
    validate();
  }

  int ndim() const { return static_cast<int>(dims_.size()); }
  index_t extent(int axis) const {
    require(axis >= 0 && axis < ndim(), "Shape: axis out of range");
    return dims_[static_cast<std::size_t>(axis)];
  }
  const std::vector<index_t>& dims() const { return dims_; }

  index_t count() const {
    index_t n = 1;
    for (auto d : dims_) n *= d;
    return n;
  }

  /// Row-major strides (in elements).
  std::vector<index_t> strides() const {
    std::vector<index_t> s(dims_.size(), 1);
    for (int a = ndim() - 2; a >= 0; --a) {
      s[static_cast<std::size_t>(a)] = s[static_cast<std::size_t>(a) + 1] *
                                       dims_[static_cast<std::size_t>(a) + 1];
    }
    return s;
  }

  /// Multi-index -> linear offset.
  index_t linearize(const std::vector<index_t>& idx) const {
    require(idx.size() == dims_.size(), "Shape: index rank mismatch");
    index_t off = 0;
    for (int a = 0; a < ndim(); ++a) {
      const index_t i = idx[static_cast<std::size_t>(a)];
      require(i >= 0 && i < dims_[static_cast<std::size_t>(a)],
              "Shape: index out of bounds");
      off = off * dims_[static_cast<std::size_t>(a)] + i;
    }
    return off;
  }

  /// Linear offset -> multi-index.
  std::vector<index_t> delinearize(index_t off) const {
    std::vector<index_t> idx(dims_.size(), 0);
    for (int a = ndim() - 1; a >= 0; --a) {
      const index_t d = dims_[static_cast<std::size_t>(a)];
      idx[static_cast<std::size_t>(a)] = off % d;
      off /= d;
    }
    return idx;
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const {
    std::vector<std::string> parts;
    parts.reserve(dims_.size());
    for (auto d : dims_) parts.push_back(std::to_string(d));
    return util::cat("(", util::join(parts, ", "), ")");
  }

  /// Streams to_string(), so a Shape can be a require() message part.
  friend std::ostream& operator<<(std::ostream& os, const Shape& s) {
    return os << s.to_string();
  }

 private:
  void validate() const {
    for (auto d : dims_) {
      require(d >= 0, "Shape: negative extent");
    }
  }
  std::vector<index_t> dims_;
};

/// Python-semantics slice: [start:stop:step] with negatives and omitted
/// bounds. kNone marks an omitted bound.
struct Slice {
  static constexpr index_t kNone = std::numeric_limits<index_t>::min();

  index_t start = kNone;
  index_t stop = kNone;
  index_t step = 1;

  static Slice all() { return Slice{}; }
  static Slice from(index_t start) { return Slice{start, kNone, 1}; }
  static Slice to(index_t stop) { return Slice{kNone, stop, 1}; }
  static Slice range(index_t start, index_t stop, index_t step = 1) {
    return Slice{start, stop, step};
  }

  /// Resolved, always-forward-representable slice on an extent n: first
  /// index, number of elements, and step (possibly negative).
  struct Resolved {
    index_t first = 0;
    index_t count = 0;
    index_t step = 1;

    index_t global_of(index_t k) const { return first + k * step; }
  };

  /// Python's slice.indices(n) semantics.
  Resolved resolve(index_t n) const {
    require(step != 0, "Slice: step must be nonzero");
    Resolved r;
    r.step = step;
    if (step > 0) {
      index_t lo = (start == kNone) ? 0 : norm(start, n, 0, n);
      index_t hi = (stop == kNone) ? n : norm(stop, n, 0, n);
      r.first = lo;
      r.count = hi > lo ? (hi - lo + step - 1) / step : 0;
    } else {
      index_t lo = (start == kNone) ? n - 1 : norm(start, n, -1, n - 1);
      index_t hi = (stop == kNone) ? -1 : norm(stop, n, -1, n - 1);
      r.first = lo;
      r.count = lo > hi ? (lo - hi - step - 1) / (-step) : 0;
    }
    return r;
  }

 private:
  // Normalizes a possibly negative index into [lo_clamp, hi_clamp].
  static index_t norm(index_t i, index_t n, index_t lo_clamp,
                      index_t hi_clamp) {
    if (i < 0) i += n;
    if (i < lo_clamp) i = lo_clamp;
    if (i > hi_clamp) i = hi_clamp;
    return i;
  }
};

}  // namespace pyhpc::odin
