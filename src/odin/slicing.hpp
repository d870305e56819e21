// Distributed array slicing (§III.G): NumPy slice expressions over
// distributed arrays, including the shifted-slice pattern behind
// finite-difference stencils (`dy = y[1:] - y[:-1]`).
//
// The general `slice()` routes elements to a fresh block distribution of
// the result shape. `shifted_diff`/`shift` implement the stencil special
// case with a one-deep halo exchange, which is what an MPI programmer would
// hand-write — E3 measures both paths.
#pragma once

#include <algorithm>
#include <optional>

#include "odin/dist_array.hpp"
#include "odin/shape.hpp"

namespace pyhpc::odin {

/// General N-dimensional slice: result is block-distributed over the same
/// axes as the source (replicated axes stay replicated). Collective.
template <class T>
DistArray<T> slice(const DistArray<T>& a, const std::vector<Slice>& slices) {
  require<ShapeError>(slices.size() == static_cast<std::size_t>(a.ndim()),
                      "slice: need one Slice per axis");
  const Shape& gshape = a.shape();
  std::vector<Slice::Resolved> resolved;
  std::vector<index_t> out_dims;
  resolved.reserve(slices.size());
  for (int axis = 0; axis < a.ndim(); ++axis) {
    resolved.push_back(
        slices[static_cast<std::size_t>(axis)].resolve(gshape.extent(axis)));
    out_dims.push_back(resolved.back().count);
  }
  Shape out_shape(out_dims);

  // Result distribution: block over the source's first distributed axis
  // (axis 0 if fully replicated).
  int dist_axis = 0;
  for (int axis = 0; axis < a.ndim(); ++axis) {
    if (a.dist().grid_dim_of_axis(axis) >= 0) {
      dist_axis = axis;
      break;
    }
  }
  auto& comm = a.dist().comm();
  Distribution out_dist = Distribution::block(comm, out_shape, dist_axis);

  // Ship target indices and values as two flat per-destination buffers
  // rather than an Entry{index_t, T} struct: the struct carries padding
  // whenever alignof(T) < alignof(index_t), and padding bytes go over the
  // wire uninitialized (nondeterministic checksums under MSan) and inflate
  // the payload.
  //
  // Two passes over the local elements: the first sizes each part exactly,
  // the second fills it, so nothing is allocated per element.
  const int p = comm.size();
  std::vector<index_t> out_idx(static_cast<std::size_t>(a.ndim()), 0);
  // The source element at global multi-index gidx: its (owner, local
  // offset) in the result, or owner -1 when the slice skips it.
  auto target = [&](const std::vector<index_t>& gidx) {
    for (int axis = 0; axis < a.ndim(); ++axis) {
      const auto& r = resolved[static_cast<std::size_t>(axis)];
      const index_t g = gidx[static_cast<std::size_t>(axis)];
      const index_t delta = r.step > 0 ? g - r.first : r.first - g;
      const index_t step = r.step > 0 ? r.step : -r.step;
      if (delta < 0 || delta % step != 0 || delta / step >= r.count) {
        return std::pair<int, index_t>{-1, 0};
      }
      out_idx[static_cast<std::size_t>(axis)] = delta / step;
    }
    return out_dist.owner_of(out_idx);
  };
  std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
  a.for_each_global([&](std::size_t, const std::vector<index_t>& gidx) {
    const int owner = target(gidx).first;
    if (owner >= 0) ++counts[static_cast<std::size_t>(owner)];
  });
  std::vector<std::vector<index_t>> out_indices(static_cast<std::size_t>(p));
  std::vector<std::vector<T>> out_values(static_cast<std::size_t>(p));
  for (std::size_t r = 0; r < counts.size(); ++r) {
    out_indices[r].reserve(counts[r]);
    out_values[r].reserve(counts[r]);
  }
  const auto local = a.local_view();
  a.for_each_global([&](std::size_t l, const std::vector<index_t>& gidx) {
    const auto [owner, lidx] = target(gidx);
    if (owner < 0) return;
    out_indices[static_cast<std::size_t>(owner)].push_back(lidx);
    out_values[static_cast<std::size_t>(owner)].push_back(local[l]);
  });
  auto in_indices = comm.alltoallv(std::move(out_indices));
  auto in_values = comm.alltoallv(std::move(out_values));

  DistArray<T> out(out_dist);
  auto view = out.local_view();
  for (int src = 0; src < p; ++src) {
    const auto& idx = in_indices[static_cast<std::size_t>(src)];
    const auto& val = in_values[static_cast<std::size_t>(src)];
    require<ShapeError>(idx.size() == val.size(),
                        "slice: index/value shuffle size mismatch");
    for (std::size_t i = 0; i < idx.size(); ++i) {
      view[static_cast<std::size_t>(idx[i])] = val[i];
    }
  }
  return out;
}

/// 1D convenience overload.
template <class T>
DistArray<T> slice1d(const DistArray<T>& a, Slice s) {
  return slice(a, std::vector<Slice>{s});
}

/// diff(a): a[1:] - a[:-1] for a 1D block-distributed array, implemented
/// with a one-element halo exchange instead of a general redistribution —
/// the hand-optimized path E3 compares against. Collective.
template <class T>
DistArray<T> shifted_diff(const DistArray<T>& a) {
  require<ShapeError>(a.ndim() == 1, "shifted_diff: needs a 1D array");
  require<ShapeError>(a.dist().axis_spec(0).scheme == Scheme::kBlock ||
                          a.dist().axis_spec(0).scheme == Scheme::kExplicit,
                      "shifted_diff: needs a contiguous block distribution");
  const index_t n = a.shape().extent(0);
  require<ShapeError>(n >= 1, "shifted_diff: empty array");
  auto& comm = a.dist().comm();
  const int p = comm.size();
  const int r = comm.rank();

  // Result y[k] = a[k+1] - a[k] for k in [0, n-1), distributed like the
  // first n-1 entries of `a` truncated by one at the last nonempty rank.
  // Each rank needs one halo value: the first element of the next
  // nonempty rank.
  const index_t my_count = a.local_size();
  // Find my successor rank with data (static: from axis counts).
  int next_with_data = -1;
  for (int q = r + 1; q < p; ++q) {
    if (a.dist().axis_count(0, q) > 0) {
      next_with_data = q;
      break;
    }
  }
  int prev_with_data = -1;
  for (int q = r - 1; q >= 0; --q) {
    if (a.dist().axis_count(0, q) > 0) {
      prev_with_data = q;
      break;
    }
  }

  // The halo exchange runs on the reserved internal tag (comm::kHaloTag):
  // a user tag here would collide with unrelated application traffic on
  // the same tag and silently cross-match. Overlap structure: post the
  // halo receive first, send our own boundary value, run the interior
  // stencil while the halo is in flight, and fill the boundary element
  // last.
  std::optional<comm::PendingRecv> halo_recv;
  if (my_count > 0 && next_with_data >= 0) {
    halo_recv.emplace(comm.irecv_internal(next_with_data, comm::kHaloTag));
  }
  if (my_count > 0 && prev_with_data >= 0) {
    comm.send_value_internal(a.local_view()[0], prev_with_data,
                             comm::kHaloTag);
  }

  // Local output: my_count results when a halo exists, otherwise one fewer
  // (the global last element produces no difference).
  std::vector<index_t> sizes(static_cast<std::size_t>(p), 0);
  for (int q = 0; q < p; ++q) {
    const index_t c = a.dist().axis_count(0, q);
    bool q_has_next = false;
    for (int w = q + 1; w < p; ++w) {
      if (a.dist().axis_count(0, w) > 0) {
        q_has_next = true;
        break;
      }
    }
    sizes[static_cast<std::size_t>(q)] = c == 0 ? 0 : (q_has_next ? c : c - 1);
  }
  Distribution out_dist = Distribution::explicit_block(
      comm, Shape({n - 1}), 0, sizes);
  DistArray<T> out(out_dist);
  auto in = a.local_view();
  auto view = out.local_view();
  const index_t out_n = static_cast<index_t>(view.size());
  {
    obs::Span span("shifted_diff.overlap", "odin");
    if (span.active()) {
      span.arg("interior", static_cast<std::int64_t>(
                               my_count > 0 ? my_count - 1 : 0));
      span.arg("halo", static_cast<std::int64_t>(halo_recv ? 1 : 0));
    }
    const T* inp = in.data();
    T* outp = view.data();
    util::parallel_for(0, my_count > 0 ? my_count - 1 : 0,
                       util::kDefaultGrain,
                       [inp, outp](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t k = lo; k < hi; ++k) {
                           outp[k] = inp[k + 1] - inp[k];
                         }
                       });
  }
  if (halo_recv.has_value() && out_n == my_count) {
    const T halo =
        comm::PendingRecv::take<T>(halo_recv->wait()).at(0);
    view[static_cast<std::size_t>(my_count - 1)] =
        halo - in[static_cast<std::size_t>(my_count - 1)];
  }
  return out;
}

}  // namespace pyhpc::odin
