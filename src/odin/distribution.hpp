// Distribution: how an N-dimensional global array is laid out over the
// ranks of a communicator.
//
// The paper's §III.A promises control over: which nodes participate, which
// dimension or dimensions are distributed, non-uniform sections, and
// "block, cyclic, block-cyclic, or another arbitrary global-to-local index
// mapping". This class implements exactly that: a process grid whose
// dimensions are assigned to array axes, each with a per-axis scheme
// (block / explicit-block / cyclic / block-cyclic); axes not assigned to a
// grid dimension are stored whole on every rank.
#pragma once

#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "odin/shape.hpp"

namespace pyhpc::odin {

/// Per-axis layout scheme.
enum class Scheme {
  kBlock,        // contiguous near-uniform blocks
  kExplicit,     // contiguous blocks with caller-given sizes
  kCyclic,       // element i -> process i % P
  kBlockCyclic,  // blocks of size b dealt round-robin
  kReplicated,   // axis not distributed (full extent everywhere)
};

/// Layout of one array axis across `procs` grid processes.
struct AxisSpec {
  Scheme scheme = Scheme::kReplicated;
  int procs = 1;           // grid extent along this axis (1 if replicated)
  index_t block = 1;       // block size for kBlockCyclic
  std::vector<index_t> offsets;  // kBlock/kExplicit: procs+1 cut points

  bool operator==(const AxisSpec& o) const {
    return scheme == o.scheme && procs == o.procs && block == o.block &&
           offsets == o.offsets;
  }
};

class Distribution {
 public:
  /// 1D-style block distribution over a single axis (the default the paper
  /// uses: "each uses a default block distribution").
  static Distribution block(comm::Communicator& comm, Shape shape,
                            int axis = 0);

  /// Block with caller-chosen per-rank section sizes on `axis`
  /// ("apportion non-uniform sections of an array to each node").
  static Distribution explicit_block(comm::Communicator& comm, Shape shape,
                                     int axis,
                                     const std::vector<index_t>& sizes);

  /// Cyclic over one axis.
  static Distribution cyclic(comm::Communicator& comm, Shape shape,
                             int axis = 0);

  /// Block-cyclic with block size `b` over one axis.
  static Distribution block_cyclic(comm::Communicator& comm, Shape shape,
                                   int axis, index_t b);

  /// Block distribution over several axes at once using a process grid
  /// (`grid[k]` processes assigned to `axes[k]`); the grid extents must
  /// multiply to the communicator size.
  static Distribution block_grid(comm::Communicator& comm, Shape shape,
                                 const std::vector<int>& axes,
                                 const std::vector<int>& grid);

  /// Fully replicated (every rank stores everything).
  static Distribution replicated(comm::Communicator& comm, Shape shape);

  const Shape& global_shape() const { return shape_; }
  int ndim() const { return shape_.ndim(); }
  comm::Communicator& comm() const { return *comm_; }
  int rank() const { return comm_->rank(); }
  int num_ranks() const { return comm_->size(); }

  const AxisSpec& axis_spec(int axis) const {
    return specs_[static_cast<std::size_t>(axis)];
  }

  /// Same layout on every axis (and same shape) over the same
  /// communicator: element-wise operations need no communication — the
  /// paper's "conformable" condition.
  bool conformable(const Distribution& other) const {
    return shape_ == other.shape_ && specs_ == other.specs_ &&
           grid_ == other.grid_ && comm_->shares_context(*other.comm_);
  }

  /// Local extents on this rank.
  Shape local_shape() const { return local_shape_for(rank()); }

  /// Local extents on an arbitrary rank.
  Shape local_shape_for(int rank) const;

  index_t local_count() const;

  /// True when no axis is distributed: every rank stores the whole array
  /// and rank 0 holds the canonical copy. Otherwise the process grid
  /// covers the communicator and each element lives on exactly one rank.
  bool fully_replicated() const { return grid_.empty(); }

  /// Owning rank and local linear offset of a global multi-index. For
  /// axes replicated across a grid dimension the owner is the rank whose
  /// other coordinates match; replicated axes do not affect ownership.
  /// A fully replicated array has a copy on every rank; this returns the
  /// canonical one (rank 0). Allocates nothing.
  std::pair<int, index_t> owner_of(const std::vector<index_t>& gidx) const;

  /// Global multi-index of a local linear offset on this rank.
  std::vector<index_t> global_of_local(index_t local_linear) const;

  /// Global multi-index of a local linear offset on an arbitrary rank.
  /// Allocates only its result.
  std::vector<index_t> global_of_local_for(int rank,
                                           index_t local_linear) const;

  /// Per axis, the global index of each of this rank's local coordinates
  /// along it, in local order (which rises with global index in every
  /// scheme).
  std::vector<std::vector<index_t>> local_axis_globals() const;

  /// Per-axis: the grid coordinate owning global index g.
  int axis_owner(int axis, index_t g) const;

  /// Per-axis: local index of global g on its owning grid coordinate.
  index_t axis_local(int axis, index_t g) const;

  /// Per-axis: global index of local index l at grid coordinate c.
  index_t axis_global(int axis, int c, index_t l) const;

  /// Per-axis: local extent at grid coordinate c.
  index_t axis_count(int axis, int c) const;

  /// The grid dimension assigned to each axis (-1 when replicated).
  int grid_dim_of_axis(int axis) const {
    return axis_grid_dim_[static_cast<std::size_t>(axis)];
  }

  /// Per-axis: ranks between neighbouring grid coordinates along `axis`
  /// (0 when the axis is replicated). The owner of a global multi-index g
  /// is the sum over axes of axis_owner(axis, g[axis]) times this stride.
  int axis_rank_stride(int axis) const {
    const int gd = grid_dim_of_axis(axis);
    return gd < 0 ? 0 : grid_stride_[static_cast<std::size_t>(gd)];
  }

  std::string describe() const;

 private:
  Distribution(comm::Communicator& comm, Shape shape)
      : comm_(std::make_shared<comm::Communicator>(comm)),
        shape_(std::move(shape)) {}

  static std::vector<index_t> uniform_offsets(index_t n, int p);
  void finalize();

  /// Per-axis: the grid coordinate of `rank` along the grid dimension
  /// assigned to `axis` (0 when the axis is replicated).
  int axis_coord(int axis, int rank) const;

  std::shared_ptr<comm::Communicator> comm_;
  Shape shape_;
  std::vector<AxisSpec> specs_;     // one per array axis
  std::vector<int> grid_;           // process grid extents (row-major)
  std::vector<int> grid_stride_;    // ranks between neighbours per grid dim
  std::vector<int> axis_grid_dim_;  // array axis -> grid dim (-1 replicated)
};

/// The plan under redistribute, redistribution_cost and zip's kAuto pass:
/// for each of this rank's local elements of `from`, in local order, the
/// rank that owns it under `to` (for a fully replicated `to`, the
/// canonical owner, rank 0). Built from per-axis tables — one owner lookup
/// per local coordinate of each axis, then an odometer over the local
/// elements — so nothing is allocated per element. Local: no
/// communication. Throws ShapeError when the global shapes differ and
/// InvalidArgument when the layouts are over different communicators
/// (Communicator::shares_context): the plan numbers targets in `to`'s
/// communicator while redistribute moves values over `from`'s, so the
/// two must be one world. Every split, duplicate or shrink makes a new
/// world on every rank it includes, so the check fails on every rank
/// alike and a collective caller fails before its first message.
///
/// Invariant the receiving side of redistribute relies on: in every
/// scheme, local order along an axis rises with global index, so a rank's
/// local (row-major) order is the global row-major order of the elements
/// it holds. The elements rank s sends rank r therefore leave s and land
/// on r in the same order, and redistribution_targets(to, from) on r —
/// the source rank of each of r's elements — places them with one cursor
/// per source.
std::vector<int> redistribution_targets(const Distribution& from,
                                        const Distribution& to);

/// Elements of this rank's part of `from` that leave the rank when the
/// array moves onto `to`: the plan's targets other than this rank. Only
/// the canonical copy of a fully replicated `from` sends, so its other
/// ranks count nothing; a fully replicated `to` takes a copy on each of
/// its other ranks. Local: no communication; same checks as the plan.
index_t redistribution_local_cost(const Distribution& from,
                                  const Distribution& to);

}  // namespace pyhpc::odin
