#include "odin/distribution.hpp"

#include <algorithm>
#include <numeric>

namespace pyhpc::odin {

std::vector<index_t> Distribution::uniform_offsets(index_t n, int p) {
  std::vector<index_t> off(static_cast<std::size_t>(p) + 1, 0);
  const index_t chunk = n / p;
  const index_t rem = n % p;
  for (int r = 0; r < p; ++r) {
    off[static_cast<std::size_t>(r) + 1] =
        off[static_cast<std::size_t>(r)] + chunk + (r < rem ? 1 : 0);
  }
  return off;
}

void Distribution::finalize() {
  // Establish the axis -> grid-dimension assignment from specs_ (axes with
  // procs > 1 or explicitly distributed schemes take a grid dim in axis
  // order) and validate the grid size.
  axis_grid_dim_.assign(static_cast<std::size_t>(shape_.ndim()), -1);
  grid_.clear();
  int total = 1;
  for (int a = 0; a < shape_.ndim(); ++a) {
    auto& spec = specs_[static_cast<std::size_t>(a)];
    if (spec.scheme == Scheme::kReplicated) continue;
    axis_grid_dim_[static_cast<std::size_t>(a)] =
        static_cast<int>(grid_.size());
    grid_.push_back(spec.procs);
    total *= spec.procs;
  }
  require(total == comm_->size() || (grid_.empty() && comm_->size() >= 1),
          "Distribution: process grid covers ", total,
          " ranks but the communicator has ", comm_->size());
  // Row-major rank numbering: the last grid dimension varies fastest.
  grid_stride_.assign(grid_.size(), 1);
  for (int g = static_cast<int>(grid_.size()) - 2; g >= 0; --g) {
    grid_stride_[static_cast<std::size_t>(g)] =
        grid_stride_[static_cast<std::size_t>(g) + 1] *
        grid_[static_cast<std::size_t>(g) + 1];
  }
}

Distribution Distribution::block(comm::Communicator& comm, Shape shape,
                                 int axis) {
  require(axis >= 0 && axis < shape.ndim(), "Distribution::block: bad axis");
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  AxisSpec& spec = d.specs_[static_cast<std::size_t>(axis)];
  spec.scheme = Scheme::kBlock;
  spec.procs = comm.size();
  spec.offsets = uniform_offsets(shape.extent(axis), comm.size());
  d.finalize();
  return d;
}

Distribution Distribution::explicit_block(comm::Communicator& comm,
                                          Shape shape, int axis,
                                          const std::vector<index_t>& sizes) {
  require(axis >= 0 && axis < shape.ndim(),
          "Distribution::explicit_block: bad axis");
  require(sizes.size() == static_cast<std::size_t>(comm.size()),
          "Distribution::explicit_block: need one size per rank");
  index_t total = 0;
  for (auto s : sizes) {
    require(s >= 0, "Distribution::explicit_block: negative section size");
    total += s;
  }
  require(total == shape.extent(axis),
          "Distribution::explicit_block: sizes must sum to the axis extent");
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  AxisSpec& spec = d.specs_[static_cast<std::size_t>(axis)];
  spec.scheme = Scheme::kExplicit;
  spec.procs = comm.size();
  spec.offsets.assign(static_cast<std::size_t>(comm.size()) + 1, 0);
  for (int r = 0; r < comm.size(); ++r) {
    spec.offsets[static_cast<std::size_t>(r) + 1] =
        spec.offsets[static_cast<std::size_t>(r)] +
        sizes[static_cast<std::size_t>(r)];
  }
  d.finalize();
  return d;
}

Distribution Distribution::cyclic(comm::Communicator& comm, Shape shape,
                                  int axis) {
  require(axis >= 0 && axis < shape.ndim(), "Distribution::cyclic: bad axis");
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  AxisSpec& spec = d.specs_[static_cast<std::size_t>(axis)];
  spec.scheme = Scheme::kCyclic;
  spec.procs = comm.size();
  d.finalize();
  return d;
}

Distribution Distribution::block_cyclic(comm::Communicator& comm, Shape shape,
                                        int axis, index_t b) {
  require(axis >= 0 && axis < shape.ndim(),
          "Distribution::block_cyclic: bad axis");
  require(b >= 1, "Distribution::block_cyclic: block size must be >= 1");
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  AxisSpec& spec = d.specs_[static_cast<std::size_t>(axis)];
  spec.scheme = Scheme::kBlockCyclic;
  spec.procs = comm.size();
  spec.block = b;
  d.finalize();
  return d;
}

Distribution Distribution::block_grid(comm::Communicator& comm, Shape shape,
                                      const std::vector<int>& axes,
                                      const std::vector<int>& grid) {
  require(axes.size() == grid.size(),
          "Distribution::block_grid: axes/grid size mismatch");
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  for (std::size_t k = 0; k < axes.size(); ++k) {
    const int axis = axes[k];
    require(axis >= 0 && axis < shape.ndim(),
            "Distribution::block_grid: bad axis");
    AxisSpec& spec = d.specs_[static_cast<std::size_t>(axis)];
    require(spec.scheme == Scheme::kReplicated,
            "Distribution::block_grid: axis listed twice");
    require(grid[k] >= 1, "Distribution::block_grid: bad grid extent");
    spec.scheme = Scheme::kBlock;
    spec.procs = grid[k];
    spec.offsets = uniform_offsets(shape.extent(axis), grid[k]);
  }
  d.finalize();
  return d;
}

Distribution Distribution::replicated(comm::Communicator& comm, Shape shape) {
  Distribution d(comm, shape);
  d.specs_.assign(static_cast<std::size_t>(shape.ndim()), AxisSpec{});
  d.finalize();
  return d;
}

int Distribution::axis_coord(int axis, int rank) const {
  const int gd = axis_grid_dim_[static_cast<std::size_t>(axis)];
  if (gd < 0) return 0;
  return (rank / grid_stride_[static_cast<std::size_t>(gd)]) %
         grid_[static_cast<std::size_t>(gd)];
}

int Distribution::axis_owner(int axis, index_t g) const {
  const AxisSpec& spec = specs_[static_cast<std::size_t>(axis)];
  switch (spec.scheme) {
    case Scheme::kReplicated:
      return 0;
    case Scheme::kBlock:
    case Scheme::kExplicit: {
      auto it = std::upper_bound(spec.offsets.begin(), spec.offsets.end(), g);
      return static_cast<int>(it - spec.offsets.begin()) - 1;
    }
    case Scheme::kCyclic:
      return static_cast<int>(g % spec.procs);
    case Scheme::kBlockCyclic:
      return static_cast<int>((g / spec.block) % spec.procs);
  }
  return 0;
}

index_t Distribution::axis_local(int axis, index_t g) const {
  const AxisSpec& spec = specs_[static_cast<std::size_t>(axis)];
  switch (spec.scheme) {
    case Scheme::kReplicated:
      return g;
    case Scheme::kBlock:
    case Scheme::kExplicit:
      return g - spec.offsets[static_cast<std::size_t>(axis_owner(axis, g))];
    case Scheme::kCyclic:
      return g / spec.procs;
    case Scheme::kBlockCyclic: {
      const index_t superblock = spec.block * spec.procs;
      return (g / superblock) * spec.block + g % spec.block;
    }
  }
  return g;
}

index_t Distribution::axis_global(int axis, int c, index_t l) const {
  const AxisSpec& spec = specs_[static_cast<std::size_t>(axis)];
  switch (spec.scheme) {
    case Scheme::kReplicated:
      return l;
    case Scheme::kBlock:
    case Scheme::kExplicit:
      return spec.offsets[static_cast<std::size_t>(c)] + l;
    case Scheme::kCyclic:
      return l * spec.procs + c;
    case Scheme::kBlockCyclic: {
      const index_t superblock = spec.block * spec.procs;
      return (l / spec.block) * superblock + c * spec.block + l % spec.block;
    }
  }
  return l;
}

index_t Distribution::axis_count(int axis, int c) const {
  const AxisSpec& spec = specs_[static_cast<std::size_t>(axis)];
  const index_t n = shape_.extent(axis);
  switch (spec.scheme) {
    case Scheme::kReplicated:
      return n;
    case Scheme::kBlock:
    case Scheme::kExplicit:
      return spec.offsets[static_cast<std::size_t>(c) + 1] -
             spec.offsets[static_cast<std::size_t>(c)];
    case Scheme::kCyclic: {
      const index_t base = n / spec.procs;
      return base + (c < static_cast<int>(n % spec.procs) ? 1 : 0);
    }
    case Scheme::kBlockCyclic: {
      const index_t superblock = spec.block * spec.procs;
      const index_t full_super = n / superblock;
      index_t count = full_super * spec.block;
      const index_t tail = n % superblock;
      const index_t tail_start = static_cast<index_t>(c) * spec.block;
      if (tail > tail_start) {
        count += std::min(spec.block, tail - tail_start);
      }
      return count;
    }
  }
  return n;
}

Shape Distribution::local_shape_for(int rank) const {
  std::vector<index_t> dims(static_cast<std::size_t>(shape_.ndim()), 0);
  for (int a = 0; a < shape_.ndim(); ++a) {
    dims[static_cast<std::size_t>(a)] = axis_count(a, axis_coord(a, rank));
  }
  return Shape(std::move(dims));
}

index_t Distribution::local_count() const {
  index_t n = 1;
  for (int a = 0; a < shape_.ndim(); ++a) {
    n *= axis_count(a, axis_coord(a, rank()));
  }
  return n;
}

std::pair<int, index_t> Distribution::owner_of(
    const std::vector<index_t>& gidx) const {
  require(gidx.size() == static_cast<std::size_t>(shape_.ndim()),
          "Distribution::owner_of: index rank mismatch");
  // One pass from the last axis: the owner's local extents along the axes
  // already passed are the row-major stride of its local offset.
  int owner = 0;
  index_t offset = 0;
  index_t stride = 1;
  for (int a = shape_.ndim() - 1; a >= 0; --a) {
    const index_t g = gidx[static_cast<std::size_t>(a)];
    require(g >= 0 && g < shape_.extent(a),
            "Distribution::owner_of: index out of bounds");
    const int gd = axis_grid_dim_[static_cast<std::size_t>(a)];
    const int c = gd < 0 ? 0 : axis_owner(a, g);
    if (gd >= 0) owner += c * grid_stride_[static_cast<std::size_t>(gd)];
    offset += axis_local(a, g) * stride;
    stride *= axis_count(a, c);
  }
  return {owner, offset};
}

std::vector<index_t> Distribution::global_of_local_for(
    int rank, index_t local_linear) const {
  std::vector<index_t> gidx(static_cast<std::size_t>(shape_.ndim()), 0);
  for (int a = shape_.ndim() - 1; a >= 0; --a) {
    const int c = axis_coord(a, rank);
    const index_t count = axis_count(a, c);
    gidx[static_cast<std::size_t>(a)] =
        axis_global(a, c, local_linear % count);
    local_linear /= count;
  }
  return gidx;
}

std::vector<index_t> Distribution::global_of_local(index_t local_linear) const {
  return global_of_local_for(rank(), local_linear);
}

std::vector<std::vector<index_t>> Distribution::local_axis_globals() const {
  std::vector<std::vector<index_t>> globals(
      static_cast<std::size_t>(shape_.ndim()));
  for (int a = 0; a < shape_.ndim(); ++a) {
    const int c = axis_coord(a, rank());
    auto& axis = globals[static_cast<std::size_t>(a)];
    axis.resize(static_cast<std::size_t>(axis_count(a, c)));
    for (std::size_t l = 0; l < axis.size(); ++l) {
      axis[l] = axis_global(a, c, static_cast<index_t>(l));
    }
  }
  return globals;
}

std::string Distribution::describe() const {
  std::vector<std::string> parts;
  for (int a = 0; a < shape_.ndim(); ++a) {
    const AxisSpec& spec = specs_[static_cast<std::size_t>(a)];
    switch (spec.scheme) {
      case Scheme::kReplicated: parts.push_back("*"); break;
      case Scheme::kBlock: parts.push_back(util::cat("b", spec.procs)); break;
      case Scheme::kExplicit: parts.push_back(util::cat("e", spec.procs)); break;
      case Scheme::kCyclic: parts.push_back(util::cat("c", spec.procs)); break;
      case Scheme::kBlockCyclic:
        parts.push_back(util::cat("bc", spec.procs, "x", spec.block));
        break;
    }
  }
  return util::cat("Dist", shape_, "[", util::join(parts, ","), "]");
}

std::vector<int> redistribution_targets(const Distribution& from,
                                        const Distribution& to) {
  require<ShapeError>(from.global_shape() == to.global_shape(),
                      "redistribution: global shapes differ: ",
                      from.global_shape(), " vs ", to.global_shape());
  require(from.comm().shares_context(to.comm()),
          "redistribution: the source layout (", from.num_ranks(),
          " ranks) and the target layout (", to.num_ranks(),
          " ranks) are over different communicators");
  // Per axis, the share of the target rank that each local coordinate
  // fixes: its owning grid coordinate under `to` times that grid
  // dimension's rank stride (0 on an axis `to` does not distribute).
  const int nd = from.ndim();
  const auto globals = from.local_axis_globals();
  std::vector<std::vector<int>> share(static_cast<std::size_t>(nd));
  for (int a = 0; a < nd; ++a) {
    const auto& g = globals[static_cast<std::size_t>(a)];
    auto& s = share[static_cast<std::size_t>(a)];
    s.assign(g.size(), 0);
    const int stride = to.axis_rank_stride(a);
    if (stride == 0) continue;
    for (std::size_t l = 0; l < g.size(); ++l) {
      s[l] = to.axis_owner(a, g[l]) * stride;
    }
  }
  // Odometer over the local elements in row-major order: the outer axes'
  // shares sum to a base, the innermost axis runs contiguously.
  const index_t n = from.local_count();
  std::vector<int> targets(static_cast<std::size_t>(n), 0);
  if (n == 0 || nd == 0) return targets;
  const auto& inner = share[static_cast<std::size_t>(nd) - 1];
  std::vector<std::size_t> idx(static_cast<std::size_t>(nd), 0);
  for (std::size_t out = 0; out < targets.size();) {
    int base = 0;
    for (std::size_t a = 0; a + 1 < idx.size(); ++a) base += share[a][idx[a]];
    for (const int s : inner) targets[out++] = base + s;
    for (int a = nd - 2; a >= 0; --a) {
      const auto ua = static_cast<std::size_t>(a);
      if (++idx[ua] < share[ua].size()) break;
      idx[ua] = 0;
    }
  }
  return targets;
}

index_t redistribution_local_cost(const Distribution& from,
                                  const Distribution& to) {
  const std::vector<int> targets = redistribution_targets(from, to);
  const int me = from.rank();
  if (from.fully_replicated() && me != 0) return 0;
  if (to.fully_replicated()) {
    return static_cast<index_t>(targets.size()) * (to.num_ranks() - 1);
  }
  return static_cast<index_t>(
      std::count_if(targets.begin(), targets.end(),
                    [me](int t) { return t != me; }));
}

}  // namespace pyhpc::odin
