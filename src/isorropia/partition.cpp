#include "isorropia/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pyhpc::isorropia {

namespace {
using GO = std::int64_t;
using LO = std::int32_t;
}  // namespace

Map partition_1d_weighted(const Vector& weights) {
  auto& comm = weights.map().comm();
  const int p = comm.size();
  auto w = weights.gather_global();  // replicated; fine at bench scales
  const GO n = static_cast<GO>(w.size());

  double total = 0.0;
  for (double x : w) {
    require(x >= 0.0, "partition_1d_weighted: negative weight");
    total += x;
  }
  const double ideal = total / p;

  // Greedy sweep: close a block when adding the next weight would move the
  // running sum further from the ideal than stopping here, keeping enough
  // indices for the remaining ranks.
  std::vector<GO> counts(static_cast<std::size_t>(p), 0);
  GO next = 0;
  for (int r = 0; r < p; ++r) {
    const GO remaining_ranks = p - r - 1;
    double acc = 0.0;
    GO count = 0;
    while (next < n - remaining_ranks) {
      const double with = acc + w[static_cast<std::size_t>(next)];
      if (count > 0 && std::abs(with - ideal) > std::abs(acc - ideal)) break;
      acc = with;
      ++next;
      ++count;
    }
    if (r == p - 1) {
      count += n - next;
      next = n;
    }
    counts[static_cast<std::size_t>(r)] = count;
  }
  return Map::from_local_sizes(
      comm, static_cast<LO>(counts[static_cast<std::size_t>(comm.rank())]));
}

Map partition_by_nonzeros(const Matrix& a) {
  Vector weights(a.row_map());
  auto row_ptr = a.row_ptr();
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    weights[i] = static_cast<double>(row_ptr[static_cast<std::size_t>(i) + 1] -
                                     row_ptr[static_cast<std::size_t>(i)]);
  }
  return partition_1d_weighted(weights);
}

namespace {

struct Point {
  GO gid;
  double x;
  double y;
};

// Recursively splits `pts` (in place) into `nparts` groups by alternating
// coordinate medians; assigns part ids via `assign`.
void rcb_recurse(std::vector<Point>& pts, std::size_t lo, std::size_t hi,
                 int part_lo, int nparts, bool split_x,
                 std::vector<std::pair<GO, int>>& assign) {
  if (nparts == 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      assign.emplace_back(pts[i].gid, part_lo);
    }
    return;
  }
  const int left_parts = nparts / 2;
  // Weighted split position proportional to the part counts.
  const std::size_t mid =
      lo + (hi - lo) * static_cast<std::size_t>(left_parts) /
               static_cast<std::size_t>(nparts);
  auto cmp = [split_x](const Point& a, const Point& b) {
    return split_x ? a.x < b.x : a.y < b.y;
  };
  std::nth_element(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                   pts.begin() + static_cast<std::ptrdiff_t>(mid),
                   pts.begin() + static_cast<std::ptrdiff_t>(hi), cmp);
  rcb_recurse(pts, lo, mid, part_lo, left_parts, !split_x, assign);
  rcb_recurse(pts, mid, hi, part_lo + left_parts, nparts - left_parts,
              !split_x, assign);
}

}  // namespace

Map partition_rcb_2d(const Vector& x, const Vector& y) {
  require(x.local_size() == y.local_size(),
          "partition_rcb_2d: coordinate vectors must share a map");
  auto& comm = x.map().comm();
  const int p = comm.size();

  // Gather points (replicated RCB — standard for modest point counts).
  std::vector<Point> mine;
  mine.reserve(static_cast<std::size_t>(x.local_size()));
  for (LO i = 0; i < x.local_size(); ++i) {
    mine.push_back(Point{x.map().local_to_global(i), x[i], y[i]});
  }
  auto chunks = comm.allgatherv(std::span<const Point>(mine));
  std::vector<Point> all;
  for (const auto& c : chunks) all.insert(all.end(), c.begin(), c.end());

  std::vector<std::pair<GO, int>> assign;
  assign.reserve(all.size());
  rcb_recurse(all, 0, all.size(), 0, p, /*split_x=*/true, assign);

  std::vector<GO> my_gids;
  for (const auto& [gid, part] : assign) {
    if (part == comm.rank()) my_gids.push_back(gid);
  }
  std::sort(my_gids.begin(), my_gids.end());
  return Map::from_global_indices(comm, my_gids);
}

Vector rebalance(const Vector& v, const Map& target) {
  tpetra::Import<> plan(v.map(), target);
  Vector out(target);
  out.do_import(v, plan, tpetra::CombineMode::kInsert);
  return out;
}

Matrix rebalance_matrix(const Matrix& a, const Map& target) {
  pyhpc::require<pyhpc::MapError>(a.is_fill_complete(),
                                  "rebalance_matrix: matrix not fill-complete");
  auto& comm = a.row_map().comm();
  const int p = comm.size();
  struct Triple {
    GO row;
    GO col;
    double val;
  };
  // Resolve the new owner of each locally held row, then route triples.
  std::vector<GO> my_rows;
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    my_rows.push_back(a.row_map().local_to_global(i));
  }
  auto owners = target.remote_index_list(std::span<const GO>(my_rows));
  std::vector<std::vector<Triple>> outgoing(static_cast<std::size_t>(p));
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    const int owner = owners[static_cast<std::size_t>(i)].first;
    pyhpc::require<pyhpc::MapError>(owner >= 0,
                                    "rebalance_matrix: row not in target map");
    for (const auto& [c, v] :
         a.get_global_row(my_rows[static_cast<std::size_t>(i)])) {
      outgoing[static_cast<std::size_t>(owner)].push_back(
          Triple{my_rows[static_cast<std::size_t>(i)], c, v});
    }
  }
  auto incoming = comm.alltoallv(std::move(outgoing));
  Matrix out(target);
  for (const auto& part : incoming) {
    for (const auto& t : part) {
      out.insert_global_value(t.row, t.col, t.val);
    }
  }
  out.fill_complete();
  return out;
}

double imbalance(const Vector& weights) {
  double local = 0.0;
  for (LO i = 0; i < weights.local_size(); ++i) local += weights[i];
  auto& comm = weights.map().comm();
  const double total = comm.allreduce_value(local, std::plus<double>{});
  const double mx = comm.allreduce_value(
      local, [](double a, double b) { return std::max(a, b); });
  if (total == 0.0) return 1.0;
  return mx / (total / comm.size());
}

}  // namespace pyhpc::isorropia
