// Smoothed-aggregation algebraic multigrid V-cycle — the ML analogue from
// the paper's Table I ("ML — multi-level (algebraic multigrid)
// preconditioners").
//
// Pipeline per level (see DESIGN.md §5):
//  1. processor-local greedy distance-1 aggregation;
//  2. tentative piecewise-constant prolongator P0;
//  3. prolongator smoothing P = (I - omega D^{-1} A) P0 with
//     omega = 4/3 / lambda_max(D^{-1} A) (ML's default damping) — this is
//     what turns the weakly converging "unsmoothed aggregation" into a
//     proper multigrid method. Each row of P is summed in a dense
//     accumulator over the referenced coarse columns plus a touched list,
//     and P is also stored transposed (P^T in CSR, fine rows ascending);
//  4. distributed Galerkin product A_c = P^T (A P), formed row by row with
//     sparse kernels: A P runs over local and ghost P rows (ghost rows
//     travel by an alltoallv handshake), then P^T (A P) runs over the rows
//     of the stored P^T, each product in a dense accumulator over coarse
//     columns. Every structurally present entry is kept, even one that sums
//     to zero, so each level's sparsity pattern (and operator complexity)
//     is that of the triple product. Each coarse row goes to its owner
//     with one owner lookup and one insert_global_values call;
//  5. damped-Jacobi pre/post smoothing. The coarsest level is a replicated
//     dense LU when it reached coarse_size or max_levels; when coarsening
//     stalled (no global size reduction) it is instead solved by
//     pre_smooth_sweeps + post_smooth_sweeps Jacobi sweeps from z = 0,
//     since an uncoarsenable level can be arbitrarily large.
//
// The V-cycle allocates no vectors: setup gives every level its workspace
// (A z / residual, coarse right-hand side and correction, the prolongation
// ghost and the restriction buffer). The first pre-smoothing sweep starts
// from z = 0 and so sets z = omega D^{-1} r without an A·0 product.
// Restriction gathers through the stored P^T in parallel; each coarse entry
// still sums its fine rows in ascending order, as a serial scatter would.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "precond/preconditioner.hpp"
#include "tpetra/import_export.hpp"
#include "util/dense_lu.hpp"

namespace pyhpc::precond {

struct AmgOptions {
  int max_levels = 10;
  /// Stop coarsening when the global size drops to this or below.
  std::int64_t coarse_size = 32;
  int pre_smooth_sweeps = 1;
  int post_smooth_sweeps = 1;
  double jacobi_omega = 0.8;
  /// Prolongator damping as a multiple of 1/lambda_max(D^{-1}A); 0 disables
  /// smoothing (plain aggregation — exposed for the ablation bench).
  double prolongator_damping = 4.0 / 3.0;
};

class AmgPreconditioner final : public Preconditioner {
 public:
  explicit AmgPreconditioner(const Matrix& a, AmgOptions options = {});

  /// z := V-cycle(r) with zero initial guess. Collective. Not re-entrant on
  /// one instance: every level's workspace is shared by all calls (the
  /// same contract as CrsMatrix::apply's ghost buffer), so concurrent
  /// applies need one preconditioner each.
  void apply(const Vector& r, Vector& z) const override;

  std::string name() const override { return "AMG"; }

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Global unknown count per level (diagnostics / tests).
  std::vector<std::int64_t> level_sizes() const;

  /// Operator complexity: sum of nnz over levels / nnz(A). Collective.
  double operator_complexity() const;

 private:
  /// Distributed rectangular prolongator stored as a local CSR whose
  /// columns index an overlapping map of referenced coarse gids, plus its
  /// transpose; data motion happens through one Import plan per level.
  struct Prolongator {
    std::vector<std::int64_t> row_ptr;  // fine local rows
    std::vector<LO> col;                // index into overlap map
    std::vector<double> val;
    std::vector<std::int64_t> t_row_ptr;  // P^T: overlap-map rows
    std::vector<LO> t_col;                // fine local row, ascending
    std::vector<double> t_val;
    std::shared_ptr<Map> overlap_map;   // referenced coarse gids, this rank
    std::shared_ptr<tpetra::Import<>> import_plan;  // coarse -> overlap
    // Overlap-layout workspace: ghosted coarse correction (prolongate)
    // and per-rank restriction sums (restrict_to).
    mutable std::optional<Vector> ghost, contrib;

    /// z += P e_c (collective: ghosts e_c).
    void prolongate(const Vector& ec, Vector& z) const;
    /// rc := P^T r (collective: exports contributions to owners).
    void restrict_to(const Vector& r, Vector& rc) const;
  };

  struct Level {
    std::shared_ptr<Matrix> a;
    Vector inv_diag;  // Jacobi smoother workspace
    std::shared_ptr<Map> coarse_map;
    Prolongator p;
    // V-cycle workspace: az holds A z, then the residual r - A z; rc/ec are
    // the coarse right-hand side and correction (absent on the coarsest).
    mutable Vector az;
    mutable std::optional<Vector> rc, ec;

    explicit Level(std::shared_ptr<Matrix> mat)
        : a(std::move(mat)), inv_diag(a->row_map()), az(a->row_map()) {}
  };

  void build_hierarchy(std::shared_ptr<Matrix> a);
  static std::vector<LO> aggregate_local(const Matrix& a, LO& num_aggregates);
  static double estimate_diag_scaled_lambda_max(const Matrix& a,
                                                const Vector& inv_diag);
  /// Builds the smoothed prolongator (and its transpose) and returns the
  /// Galerkin coarse operator (collective).
  std::shared_ptr<Matrix> build_transfer_and_coarse(
      Level& level, const std::vector<LO>& agg_of) const;
  /// Overwrites z with the V-cycle's approximation to A_lvl^{-1} r.
  void vcycle(std::size_t lvl, const Vector& r, Vector& z) const;
  /// `sweeps` damped-Jacobi sweeps on A z = r. With `from_zero` the input
  /// z is ignored and treated as 0, so the first sweep is z = omega D^-1 r.
  void smooth(const Level& level, const Vector& r, Vector& z, int sweeps,
              bool from_zero) const;

  AmgOptions options_;
  std::vector<Level> levels_;
  // Replicated coarsest solve; null when coarsening stalled, in which case
  // the coarsest level is smoothed instead of factored.
  std::unique_ptr<util::DenseLU> coarse_lu_;
};

}  // namespace pyhpc::precond
