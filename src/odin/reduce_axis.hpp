// Axis reductions over distributed arrays: the NumPy a.sum(axis=k) family
// (the paper's ODIN is a "distributed NumPy"; whole-array reductions live
// on DistArray, these remove one axis).
//
// One implementation covers every distribution scheme: each rank folds its
// local elements into per-output partials, partials are routed to the
// owner of each output cell under the result's block distribution
// (alltoallv), and owners fold incoming partials. Communication is
// O(#output cells touched per rank), never O(input).
#pragma once

#include <unordered_map>

#include "odin/dist_array.hpp"

namespace pyhpc::odin {

/// Reduces `a` along `axis` with a binary op (must be associative and
/// commutative; `init` is its identity). The result has the input shape
/// minus that axis and is block-distributed over its first axis (or a
/// single replicated cell for full reduction of 1D inputs). Collective.
template <class T, class Op>
DistArray<T> reduce_axis(const DistArray<T>& a, int axis, Op op, T init) {
  require<ShapeError>(axis >= 0 && axis < a.ndim(),
                      "reduce_axis: axis out of range");
  require<ShapeError>(a.ndim() >= 1, "reduce_axis: needs at least 1 axis");
  const Shape& in_shape = a.shape();

  // Output shape: input minus the reduced axis (rank-0 becomes shape {1}).
  std::vector<index_t> out_dims;
  for (int d = 0; d < a.ndim(); ++d) {
    if (d != axis) out_dims.push_back(in_shape.extent(d));
  }
  if (out_dims.empty()) out_dims.push_back(1);
  Shape out_shape(out_dims);
  auto& comm = a.dist().comm();
  Distribution out_dist = Distribution::block(comm, out_shape, 0);

  // Local fold into per-output partials (keyed by output linear index).
  // Threaded as a map-merging reduction: each chunk of local indices folds
  // into its own map, maps merge pairwise with `op`. op is associative and
  // commutative by contract and `init` is its identity, so the merged
  // values are independent of the chunking.
  const auto out_strides = out_shape.strides();
  using PartialMap = std::unordered_map<index_t, T>;
  PartialMap partials = util::parallel_reduce(
      0, static_cast<std::int64_t>(a.local_size()), util::kDefaultGrain,
      PartialMap{},
      [&](std::int64_t lo, std::int64_t hi) {
        PartialMap m;
        for (std::int64_t l = lo; l < hi; ++l) {
          const auto gidx = a.dist().global_of_local(static_cast<index_t>(l));
          index_t out_linear = 0;
          int k = 0;
          if (a.ndim() == 1) {
            out_linear = 0;  // full reduction of a 1D array -> single cell
          } else {
            for (int d = 0; d < a.ndim(); ++d) {
              if (d == axis) continue;
              out_linear += gidx[static_cast<std::size_t>(d)] *
                            out_strides[static_cast<std::size_t>(k)];
              ++k;
            }
          }
          auto [it, inserted] = m.emplace(out_linear, init);
          it->second =
              op(it->second, a.local_view()[static_cast<std::size_t>(l)]);
        }
        return m;
      },
      [&op](PartialMap x, PartialMap y) {
        for (auto& [key, value] : y) {
          auto [it, inserted] = x.emplace(key, value);
          if (!inserted) it->second = op(it->second, value);
        }
        return x;
      });

  // Route partials to the owner of each output cell.
  struct Partial {
    index_t out_local;
    T value;
  };
  const int p = comm.size();
  std::vector<std::vector<Partial>> outgoing(static_cast<std::size_t>(p));
  for (const auto& [out_linear, value] : partials) {
    const auto out_gidx = out_shape.delinearize(out_linear);
    const auto [owner, lidx] = out_dist.owner_of(out_gidx);
    outgoing[static_cast<std::size_t>(owner)].push_back(Partial{lidx, value});
  }
  auto incoming = comm.alltoallv(std::move(outgoing));

  DistArray<T> out(out_dist, init);
  auto view = out.local_view();
  for (const auto& part : incoming) {
    for (const auto& contrib : part) {
      auto& slot = view[static_cast<std::size_t>(contrib.out_local)];
      slot = op(slot, contrib.value);
    }
  }
  return out;
}

template <class T>
DistArray<T> sum_axis(const DistArray<T>& a, int axis) {
  return reduce_axis(a, axis, std::plus<T>{}, T{0});
}

template <class T>
DistArray<T> min_axis(const DistArray<T>& a, int axis) {
  return reduce_axis(
      a, axis, [](T x, T y) { return std::min(x, y); },
      std::numeric_limits<T>::max());
}

template <class T>
DistArray<T> max_axis(const DistArray<T>& a, int axis) {
  return reduce_axis(
      a, axis, [](T x, T y) { return std::max(x, y); },
      std::numeric_limits<T>::lowest());
}

/// Arithmetic mean along an axis (computed as sum / extent).
inline DistArray<double> mean_axis(const DistArray<double>& a, int axis) {
  const auto n = static_cast<double>(a.shape().extent(axis));
  auto s = sum_axis(a, axis);
  s.transform([n](double v) { return v / n; });
  return s;
}

}  // namespace pyhpc::odin
