// CrsMatrix: a distributed compressed-row sparse matrix
// (Tpetra::CrsMatrix analogue). Rows are distributed by a one-to-one row
// map; fill_complete() builds the column map, the local CSR structure, and
// the Import used to ghost the needed domain entries during apply().
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "tpetra/import_export.hpp"
#include "tpetra/map.hpp"
#include "tpetra/operator.hpp"
#include "tpetra/vector.hpp"
#include "util/task_pool.hpp"

namespace pyhpc::tpetra {

/// Chunk size for row-blocked parallel sweeps (SpMV, relaxation): each row
/// carries a whole nnz row of work, so a smaller grain than the
/// elementwise util::kDefaultGrain still amortizes pool scheduling.
inline constexpr std::int64_t kRowGrain = 1024;

template <class Scalar = double, class LO = std::int32_t,
          class GO = std::int64_t>
class CrsMatrix final : public Operator<Scalar, LO, GO> {
 public:
  using scalar_type = Scalar;
  using map_type = Map<LO, GO>;
  using vector_type = Vector<Scalar, LO, GO>;

  /// Creates an empty matrix whose rows (and domain/range) follow
  /// `row_map`, which must be one-to-one.
  explicit CrsMatrix(const map_type& row_map) : row_map_(row_map) {
    staging_.resize(static_cast<std::size_t>(row_map.num_local()));
  }

  const map_type& row_map() const { return row_map_; }
  const map_type& domain_map() const override { return row_map_; }
  const map_type& range_map() const override { return row_map_; }

  /// The (overlapping) map of referenced column indices; valid after
  /// fill_complete().
  const map_type& col_map() const {
    require<MapError>(fill_complete_, "col_map: call fill_complete first");
    return *col_map_;
  }

  bool is_fill_complete() const { return fill_complete_; }

  /// Stages entries into a locally owned row; duplicate column entries
  /// accumulate. May be called repeatedly before fill_complete().
  void insert_global_values(GO row, std::span<const GO> cols,
                            std::span<const Scalar> vals) {
    require<MapError>(!fill_complete_,
                      "insert_global_values: matrix already fill-complete");
    require(cols.size() == vals.size(),
            "insert_global_values: cols/vals size mismatch");
    const LO lrow = row_map_.global_to_local(row);
    require<MapError>(lrow != kInvalidLocal<LO>,
                      "insert_global_values: row ", row,
                      " not owned by rank ", row_map_.rank());
    auto& staged = staging_[static_cast<std::size_t>(lrow)];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      require(cols[k] >= 0 && cols[k] < row_map_.num_global(),
              "insert_global_values: column ", cols[k],
              " out of range");
      staged[cols[k]] += vals[k];
    }
  }

  void insert_global_value(GO row, GO col, Scalar val) {
    insert_global_values(row, std::span<const GO>(&col, 1),
                         std::span<const Scalar>(&val, 1));
  }

  /// Freezes the structure: builds the column map (owned columns first, in
  /// local order, then ghosts sorted by global index), converts staged
  /// entries to CSR, and constructs the ghost Import. Collective.
  void fill_complete() {
    require<MapError>(!fill_complete_, "fill_complete: called twice");

    // Referenced global columns, split into locally owned and ghost.
    std::map<GO, LO> ghost_gids;  // sorted; value filled below
    std::vector<char> local_used(
        static_cast<std::size_t>(row_map_.num_local()), 0);
    for (const auto& row : staging_) {
      for (const auto& [gcol, v] : row) {
        const LO lid = row_map_.global_to_local(gcol);
        if (lid != kInvalidLocal<LO>) {
          local_used[static_cast<std::size_t>(lid)] = 1;
        } else {
          ghost_gids.emplace(gcol, 0);
        }
      }
    }

    // Column map global index list: all owned indices first (keeps owned
    // columns addressable without translation), then sorted ghosts.
    std::vector<GO> col_gids;
    col_gids.reserve(static_cast<std::size_t>(row_map_.num_local()) +
                     ghost_gids.size());
    for (LO i = 0; i < row_map_.num_local(); ++i) {
      col_gids.push_back(row_map_.local_to_global(i));
    }
    for (auto& [gid, slot] : ghost_gids) {
      slot = static_cast<LO>(col_gids.size());
      col_gids.push_back(gid);
    }
    col_map_ = std::make_shared<map_type>(map_type::from_global_indices(
        row_map_.comm(), std::span<const GO>(col_gids)));

    // CSR assembly with column-map local indices.
    const LO nrows = row_map_.num_local();
    row_ptr_.assign(static_cast<std::size_t>(nrows) + 1, 0);
    for (LO i = 0; i < nrows; ++i) {
      row_ptr_[static_cast<std::size_t>(i) + 1] =
          row_ptr_[static_cast<std::size_t>(i)] +
          static_cast<std::int64_t>(staging_[static_cast<std::size_t>(i)].size());
    }
    col_ind_.resize(static_cast<std::size_t>(row_ptr_.back()));
    values_.resize(static_cast<std::size_t>(row_ptr_.back()));
    for (LO i = 0; i < nrows; ++i) {
      std::size_t k = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i)]);
      for (const auto& [gcol, v] : staging_[static_cast<std::size_t>(i)]) {
        const LO owned = row_map_.global_to_local(gcol);
        col_ind_[k] = (owned != kInvalidLocal<LO>)
                          ? owned
                          : ghost_gids.at(gcol);
        values_[k] = v;
        ++k;
      }
    }
    staging_.clear();
    staging_.shrink_to_fit();

    // Interior/boundary row split for communication overlap: a row is
    // interior when every column it touches is locally owned. The column
    // map lists owned columns first (local ids [0, num_local)), so the
    // test is a single compare per entry. Interior rows can be swept while
    // the ghost import is still in flight; boundary rows wait for it.
    const LO num_owned = row_map_.num_local();
    interior_rows_.clear();
    boundary_rows_.clear();
    for (LO i = 0; i < nrows; ++i) {
      bool interior = true;
      for (auto k = row_ptr_[static_cast<std::size_t>(i)];
           k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
        if (col_ind_[static_cast<std::size_t>(k)] >= num_owned) {
          interior = false;
          break;
        }
      }
      (interior ? interior_rows_ : boundary_rows_).push_back(i);
    }

    importer_ = std::make_shared<Import<LO, GO>>(row_map_, *col_map_);
    ghost_ = std::make_shared<vector_type>(*col_map_);
    fill_complete_ = true;
  }

  /// y := A x (collective), overlapping the ghost fill with the interior
  /// sweep: the halo sends are moved out (Import begin_apply), the interior
  /// rows — no ghost columns — run on the TaskPool while the halos travel,
  /// then finish() receives them and the boundary rows run. A matrix with no boundary rows (single rank, or a
  /// block-diagonal structure) skips the split and keeps the plain
  /// full-range sweep. The CSR arrays are hoisted into raw pointers once
  /// per call — member-vector accesses in the inner loop re-read data
  /// pointers through `this` on every element and defeat vectorization.
  void apply(const vector_type& x, vector_type& y) const override {
    require<MapError>(fill_complete_, "apply: call fill_complete first");
    const Scalar* xv = ghost_->local_view().data();
    Scalar* yv = y.local_view().data();
    const std::int64_t* rp = row_ptr_.data();
    const LO* ci = col_ind_.data();
    const Scalar* va = values_.data();

    if (boundary_rows_.empty()) {
      ghost_->do_import(x, *importer_, CombineMode::kInsert);
      util::parallel_for(
          0, static_cast<std::int64_t>(row_map_.num_local()), kRowGrain,
          [xv, yv, rp, ci, va](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              Scalar acc{};
              const std::int64_t end = rp[i + 1];
              for (std::int64_t k = rp[i]; k < end; ++k) {
                acc += va[k] * xv[ci[k]];
              }
              yv[i] = acc;
            }
          });
      return;
    }

    obs::Span span("spmv.overlap", "tpetra");
    if (span.active()) {
      span.arg("interior_rows",
               static_cast<std::int64_t>(interior_rows_.size()));
      span.arg("boundary_rows",
               static_cast<std::int64_t>(boundary_rows_.size()));
    }
    auto handle = importer_->template begin_apply<Scalar>(
        x.local_view(), ghost_->local_view(), CombineMode::kInsert);
    const LO* interior = interior_rows_.data();
    util::parallel_for(
        0, static_cast<std::int64_t>(interior_rows_.size()), kRowGrain,
        [xv, yv, rp, ci, va, interior](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t idx = lo; idx < hi; ++idx) {
            const std::int64_t i = interior[idx];
            Scalar acc{};
            const std::int64_t end = rp[i + 1];
            for (std::int64_t k = rp[i]; k < end; ++k) {
              acc += va[k] * xv[ci[k]];
            }
            yv[i] = acc;
          }
        });
    handle.finish();
    for (const LO row : boundary_rows_) {
      const std::int64_t i = row;
      Scalar acc{};
      const std::int64_t end = rp[i + 1];
      for (std::int64_t k = rp[i]; k < end; ++k) {
        acc += va[k] * xv[ci[k]];
      }
      yv[i] = acc;
    }
  }

  /// Copies the diagonal into `diag` (same map as the rows).
  void get_local_diag_copy(vector_type& diag) const {
    require<MapError>(fill_complete_, "get_local_diag_copy: not fill-complete");
    Scalar* dv = diag.local_view().data();
    const std::int64_t* rp = row_ptr_.data();
    const LO* ci = col_ind_.data();
    const Scalar* va = values_.data();
    const LO nrows = row_map_.num_local();
    for (LO i = 0; i < nrows; ++i) {
      Scalar d{};
      const GO grow = row_map_.local_to_global(i);
      const std::int64_t end = rp[i + 1];  // hoisted: one load per row
      for (std::int64_t k = rp[i]; k < end; ++k) {
        if (col_map_->local_to_global(ci[k]) == grow) d += va[k];
      }
      dv[i] = d;
    }
  }

  /// Scales every row i by s[i] (left scaling, A := diag(s) A).
  void left_scale(const vector_type& s) {
    require<MapError>(fill_complete_, "left_scale: not fill-complete");
    const Scalar* sv = s.local_view().data();
    const std::int64_t* rp = row_ptr_.data();
    Scalar* va = values_.data();
    const LO nrows = row_map_.num_local();
    for (LO i = 0; i < nrows; ++i) {
      const std::int64_t end = rp[i + 1];  // hoisted: one load per row
      for (std::int64_t k = rp[i]; k < end; ++k) va[k] *= sv[i];
    }
  }

  void scale(Scalar alpha) {
    for (auto& v : values_) v *= alpha;
  }

  /// Global entry count (collective).
  std::int64_t num_global_entries() const {
    const std::int64_t local = static_cast<std::int64_t>(values_.size());
    return row_map_.comm().allreduce_value(local, std::plus<std::int64_t>{});
  }

  LO num_local_rows() const { return row_map_.num_local(); }
  std::int64_t num_local_entries() const {
    return static_cast<std::int64_t>(values_.size());
  }

  /// Global Frobenius norm (collective).
  double frobenius_norm() const {
    double local = 0.0;
    for (const auto& v : values_) {
      local += static_cast<double>(v) * static_cast<double>(v);
    }
    return std::sqrt(row_map_.comm().allreduce_value(local, std::plus<double>{}));
  }

  /// Copies one locally owned row as (global column, value) pairs, sorted
  /// by global column.
  std::vector<std::pair<GO, Scalar>> get_global_row(GO row) const {
    require<MapError>(fill_complete_, "get_global_row: not fill-complete");
    const LO lrow = row_map_.global_to_local(row);
    require<MapError>(lrow != kInvalidLocal<LO>, "get_global_row: row not owned");
    std::vector<std::pair<GO, Scalar>> out;
    for (auto k = row_ptr_[static_cast<std::size_t>(lrow)];
         k < row_ptr_[static_cast<std::size_t>(lrow) + 1]; ++k) {
      out.emplace_back(
          col_map_->local_to_global(col_ind_[static_cast<std::size_t>(k)]),
          values_[static_cast<std::size_t>(k)]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Raw CSR access for preconditioner construction (valid after
  /// fill_complete; column indices are column-map local ids).
  std::span<const std::int64_t> row_ptr() const { return row_ptr_; }
  std::span<const LO> col_ind() const { return col_ind_; }
  std::span<const Scalar> values() const { return values_; }
  std::span<Scalar> values_mutable() { return values_; }

  /// The ghost importer (column-map fill plan).
  const Import<LO, GO>& importer() const { return *importer_; }

  /// Imports a domain vector into the column layout using the matrix's own
  /// plan — preconditioners that need ghosted x reuse this.
  void import_to_col_layout(const vector_type& x, vector_type& ghosted) const {
    ghosted.do_import(x, *importer_, CombineMode::kInsert);
  }

 private:
  map_type row_map_;
  std::shared_ptr<map_type> col_map_;
  // Pre-fill staging: per local row, sorted map gcol -> accumulated value.
  std::vector<std::map<GO, Scalar>> staging_;
  // CSR (post-fill), column indices in column-map local ids.
  std::vector<std::int64_t> row_ptr_;
  std::vector<LO> col_ind_;
  std::vector<Scalar> values_;
  // Overlap partition (post-fill): rows touching only owned columns vs
  // rows needing at least one ghost value.
  std::vector<LO> interior_rows_;
  std::vector<LO> boundary_rows_;
  std::shared_ptr<Import<LO, GO>> importer_;
  std::shared_ptr<vector_type> ghost_;  // scratch for apply()
  bool fill_complete_ = false;
};

}  // namespace pyhpc::tpetra
