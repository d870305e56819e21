#include "precond/amg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/task_pool.hpp"

namespace pyhpc::precond {
namespace {

// Dense accumulator for one sparse row at a time, over columns [0, size),
// with a touched list: resetting costs the row's length, and an entry that
// sums to zero still counts as present (the list records structure, not
// values).
class RowAccumulator {
 public:
  explicit RowAccumulator(std::size_t size)
      : value_(size, 0.0), seen_(size, 0) {}

  double& operator[](LO col) {
    const auto c = static_cast<std::size_t>(col);
    if (!seen_[c]) {
      seen_[c] = 1;
      touched_.push_back(col);
    }
    return value_[c];
  }

  /// Hands every touched (col, value) to emit — in ascending column order
  /// when `sorted`, else in first-touch order — and resets the row.
  template <class Emit>
  void drain(bool sorted, Emit&& emit) {
    if (sorted) std::sort(touched_.begin(), touched_.end());
    for (LO col : touched_) {
      const auto c = static_cast<std::size_t>(col);
      emit(col, value_[c]);
      value_[c] = 0.0;
      seen_[c] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<double> value_;
  std::vector<char> seen_;
  std::vector<LO> touched_;
};

}  // namespace

AmgPreconditioner::AmgPreconditioner(const Matrix& a, AmgOptions options)
    : options_(options) {
  require(options_.max_levels >= 1, "AMG: max_levels must be >= 1");
  require(options_.coarse_size >= 1, "AMG: coarse_size must be >= 1");
  build_hierarchy(std::make_shared<Matrix>(a));
}

void AmgPreconditioner::build_hierarchy(std::shared_ptr<Matrix> a) {
  bool stalled = false;
  for (int lvl = 0; lvl < options_.max_levels; ++lvl) {
    levels_.emplace_back(a);
    Level& level = levels_.back();

    Vector diag(a->row_map());
    a->get_local_diag_copy(diag);
    for (LO i = 0; i < diag.local_size(); ++i) {
      require<NumericalError>(diag[i] != 0.0, "AMG: zero diagonal entry");
      level.inv_diag[i] = 1.0 / diag[i];
    }

    if (a->row_map().num_global() <= options_.coarse_size ||
        lvl + 1 == options_.max_levels) {
      break;  // this becomes the coarsest level
    }

    LO num_aggregates = 0;
    auto agg_of = aggregate_local(*a, num_aggregates);
    level.coarse_map = std::make_shared<Map>(
        Map::from_local_sizes(a->row_map().comm(), num_aggregates));

    // A stalled coarsening (no global reduction) ends the hierarchy.
    if (level.coarse_map->num_global() >= a->row_map().num_global()) {
      level.coarse_map.reset();
      stalled = true;
      break;
    }

    a = build_transfer_and_coarse(level, agg_of);
    level.rc.emplace(*level.coarse_map);
    level.ec.emplace(*level.coarse_map);
  }
  // A level that could not coarsen may be arbitrarily large: it is smoothed
  // (see vcycle), never densely factored.
  if (stalled) return;

  // Replicated dense LU of the coarsest operator.
  const Matrix& coarse = *levels_.back().a;
  const auto n = coarse.row_map().num_global();
  struct Triple {
    GO row;
    GO col;
    double val;
  };
  std::vector<Triple> mine;
  for (LO i = 0; i < coarse.num_local_rows(); ++i) {
    const GO g = coarse.row_map().local_to_global(i);
    for (const auto& [c, v] : coarse.get_global_row(g)) {
      mine.push_back(Triple{g, c, v});
    }
  }
  auto chunks =
      coarse.row_map().comm().allgatherv(std::span<const Triple>(mine));
  std::vector<double> dense(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (const auto& chunk : chunks) {
    for (const auto& t : chunk) {
      dense[static_cast<std::size_t>(t.row) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(t.col)] += t.val;
    }
  }
  coarse_lu_ = std::make_unique<util::DenseLU>(static_cast<std::size_t>(n),
                                               std::move(dense));
}

// Greedy distance-1 aggregation over the local diagonal block: every
// unaggregated node with an untouched neighbourhood seeds an aggregate with
// its unaggregated local neighbours; leftovers join an adjacent aggregate
// when possible.
std::vector<std::int32_t> AmgPreconditioner::aggregate_local(
    const Matrix& a, LO& num_aggregates) {
  const LO n = a.row_map().num_local();
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  std::vector<LO> agg(static_cast<std::size_t>(n), -1);
  num_aggregates = 0;

  auto neighbours = [&](LO i, auto&& fn) {
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const LO c = col_ind[static_cast<std::size_t>(k)];
      if (c < n && c != i) fn(c);
    }
  };

  for (LO i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != -1) continue;
    bool clean = true;
    neighbours(i, [&](LO c) {
      if (agg[static_cast<std::size_t>(c)] != -1) clean = false;
    });
    if (!clean) continue;
    const LO id = num_aggregates++;
    agg[static_cast<std::size_t>(i)] = id;
    neighbours(i, [&](LO c) { agg[static_cast<std::size_t>(c)] = id; });
  }
  for (LO i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != -1) continue;
    LO joined = -1;
    neighbours(i, [&](LO c) {
      if (joined == -1 && agg[static_cast<std::size_t>(c)] != -1) {
        joined = agg[static_cast<std::size_t>(c)];
      }
    });
    agg[static_cast<std::size_t>(i)] = joined != -1 ? joined : num_aggregates++;
  }
  return agg;
}

double AmgPreconditioner::estimate_diag_scaled_lambda_max(
    const Matrix& a, const Vector& inv_diag) {
  Vector v(a.range_map());
  v.randomize(4242);
  Vector av(a.range_map());
  double lambda = 1.0;
  for (int it = 0; it < 10; ++it) {
    const double nrm = v.norm2();
    if (nrm == 0.0) break;
    v.scale(1.0 / nrm);
    a.apply(v, av);
    for (LO i = 0; i < av.local_size(); ++i) av[i] *= inv_diag[i];
    lambda = std::abs(v.dot(av));
    v.update(1.0, av, 0.0);
  }
  return std::max(lambda, 1e-12);
}

std::shared_ptr<Matrix> AmgPreconditioner::build_transfer_and_coarse(
    Level& level, const std::vector<LO>& agg_of) const {
  const Matrix& a = *level.a;
  const Map& fmap = a.row_map();
  const Map& cmap = *level.coarse_map;
  const Map& colmap = a.col_map();
  auto& comm = fmap.comm();
  const int nranks = comm.size();
  const LO n = fmap.num_local();
  const LO ncols = colmap.num_local();
  const std::int64_t* arp = a.row_ptr().data();
  const LO* aci = a.col_ind().data();
  const double* ava = a.values().data();

  // Global aggregate id per fine row, ghosted into the column layout so the
  // smoothing sum can see the aggregates of remote neighbours.
  tpetra::Vector<GO> agg_gid(fmap);
  for (LO i = 0; i < n; ++i) {
    agg_gid[i] = cmap.local_to_global(agg_of[static_cast<std::size_t>(i)]);
  }
  tpetra::Vector<GO> agg_gid_ghost(colmap);
  agg_gid_ghost.do_import(agg_gid, a.importer(), tpetra::CombineMode::kInsert);

  double omega = 0.0;
  if (options_.prolongator_damping > 0.0) {
    omega = options_.prolongator_damping /
            estimate_diag_scaled_lambda_max(a, level.inv_diag);
  }

  // The coarse gids P references, sorted (an overlap index orders like its
  // gid): the aggregate of every column-map entry when P is smoothed — the
  // owned columns are the owned rows, and each ghost column sits in some
  // row — else only the owned rows' aggregates. ref_of maps a column-map
  // lid to its overlap index.
  const GO* agc = agg_gid_ghost.local_view().data();
  const LO nref = omega != 0.0 ? ncols : n;
  std::vector<GO> referenced(agc, agc + nref);
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  const auto index_in = [](const std::vector<GO>& sorted, GO g) {
    return static_cast<LO>(std::lower_bound(sorted.begin(), sorted.end(), g) -
                           sorted.begin());
  };
  std::vector<LO> ref_of(static_cast<std::size_t>(nref));
  for (LO c = 0; c < nref; ++c) ref_of[c] = index_in(referenced, agc[c]);
  const auto m = static_cast<LO>(referenced.size());

  // Prolongator rows, each summed in the accumulator and emitted in
  // ascending column order:
  //   P(i, :) = e_{agg(i)} - omega * d_i^{-1} * sum_j A(i,j) e_{agg(j)}.
  Prolongator& p = level.p;
  RowAccumulator acc(static_cast<std::size_t>(m));
  p.row_ptr.assign(1, 0);
  for (LO i = 0; i < n; ++i) {
    acc[ref_of[i]] += 1.0;
    if (omega != 0.0) {
      for (auto k = arp[i]; k < arp[i + 1]; ++k) {
        acc[ref_of[aci[k]]] -= omega * level.inv_diag[i] * ava[k];
      }
    }
    acc.drain(/*sorted=*/true, [&](LO c, double w) {
      p.col.push_back(c);
      p.val.push_back(w);
    });
    p.row_ptr.push_back(static_cast<std::int64_t>(p.col.size()));
  }

  // P^T in CSR by a counting sort over columns; walking the fine rows in
  // order leaves every P^T row's fine rows ascending.
  const std::int64_t* prp = p.row_ptr.data();
  const LO* pci = p.col.data();
  const double* pva = p.val.data();
  p.t_row_ptr.assign(static_cast<std::size_t>(m) + 1, 0);
  for (LO c : p.col) ++p.t_row_ptr[c + 1];
  std::partial_sum(p.t_row_ptr.begin(), p.t_row_ptr.end(),
                   p.t_row_ptr.begin());
  p.t_col.resize(p.col.size());
  p.t_val.resize(p.val.size());
  {
    std::vector<std::int64_t> next(p.t_row_ptr.begin(), p.t_row_ptr.end() - 1);
    for (LO i = 0; i < n; ++i) {
      for (auto k = prp[i]; k < prp[i + 1]; ++k) {
        const auto at = next[pci[k]]++;
        p.t_col[at] = i;
        p.t_val[at] = pva[k];
      }
    }
  }
  p.overlap_map = std::make_shared<Map>(
      Map::from_global_indices(comm, std::span<const GO>(referenced)));
  p.import_plan = std::make_shared<tpetra::Import<>>(cmap, *p.overlap_map);
  p.ghost.emplace(*p.overlap_map);
  p.contrib.emplace(*p.overlap_map);

  // ---- Galerkin A_c = P^T (A P) ------------------------------------------
  // A P needs the P rows of ghost fine columns: request them from their
  // owners.
  std::vector<GO> ghost_gids;
  for (LO c = n; c < ncols; ++c) {
    ghost_gids.push_back(colmap.local_to_global(c));
  }
  auto owners = fmap.remote_index_list(std::span<const GO>(ghost_gids));
  std::vector<std::vector<GO>> requests(static_cast<std::size_t>(nranks));
  for (std::size_t k = 0; k < ghost_gids.size(); ++k) {
    require<MapError>(owners[k].first >= 0, "AMG: unowned ghost fine index");
    requests[static_cast<std::size_t>(owners[k].first)].push_back(
        ghost_gids[k]);
  }
  auto incoming_requests = comm.alltoallv(std::move(requests));

  struct PEntry {
    GO fine;
    GO coarse;
    double w;
  };
  std::vector<std::vector<PEntry>> replies(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    for (GO fine : incoming_requests[static_cast<std::size_t>(r)]) {
      const LO li = fmap.global_to_local(fine);
      require<MapError>(li != tpetra::kInvalidLocal<LO>,
                        "AMG: P-row request for non-owned fine index");
      for (auto k = prp[li]; k < prp[li + 1]; ++k) {
        replies[static_cast<std::size_t>(r)].push_back(
            PEntry{fine, referenced[pci[k]], pva[k]});
      }
    }
  }
  auto incoming_rows = comm.alltoallv(std::move(replies));

  // Coarse columns of A P: the referenced gids plus those only ghost P rows
  // reach, sorted. Local P rows map in through ext_of_ref; ghost P rows are
  // indexed by column-map lid - n.
  std::vector<GO> ext = referenced;
  for (const auto& part : incoming_rows) {
    for (const auto& e : part) ext.push_back(e.coarse);
  }
  std::sort(ext.begin(), ext.end());
  ext.erase(std::unique(ext.begin(), ext.end()), ext.end());
  std::vector<LO> ext_of_ref(static_cast<std::size_t>(m));
  for (LO k = 0; k < m; ++k) ext_of_ref[k] = index_in(ext, referenced[k]);
  std::vector<std::vector<std::pair<LO, double>>> ghost_prows(
      static_cast<std::size_t>(ncols - n));
  for (const auto& part : incoming_rows) {
    for (const auto& e : part) {
      ghost_prows[colmap.global_to_local(e.fine) - n].emplace_back(
          index_in(ext, e.coarse), e.w);
    }
  }

  // A P, one local fine row at a time.
  RowAccumulator acc_ext(ext.size());
  std::vector<std::int64_t> ap_ptr{0};
  std::vector<LO> ap_col;
  std::vector<double> ap_val;
  for (LO i = 0; i < n; ++i) {
    for (auto k = arp[i]; k < arp[i + 1]; ++k) {
      const LO j = aci[k];
      const double aij = ava[k];
      if (j < n) {
        for (auto q = prp[j]; q < prp[j + 1]; ++q) {
          acc_ext[ext_of_ref[pci[q]]] += aij * pva[q];
        }
      } else {
        for (const auto& [c, w] : ghost_prows[j - n]) acc_ext[c] += aij * w;
      }
    }
    acc_ext.drain(/*sorted=*/false, [&](LO c, double v) {
      ap_col.push_back(c);
      ap_val.push_back(v);
    });
    ap_ptr.push_back(static_cast<std::int64_t>(ap_col.size()));
  }

  // P^T (A P), one coarse row per P^T row. Rows of A_c may belong to
  // remote ranks (smoothed P couples local fine rows to remote
  // aggregates), so each row is routed to its owner.
  struct Triple {
    GO row;
    GO col;
    double val;
  };
  std::vector<std::vector<Triple>> outgoing(static_cast<std::size_t>(nranks));
  for (LO kc = 0; kc < m; ++kc) {
    for (auto t = p.t_row_ptr[kc]; t < p.t_row_ptr[kc + 1]; ++t) {
      const LO i = p.t_col[t];
      const double pik = p.t_val[t];
      for (auto q = ap_ptr[i]; q < ap_ptr[i + 1]; ++q) {
        acc_ext[ap_col[q]] += pik * ap_val[q];
      }
    }
    const GO row = referenced[kc];
    auto& out = outgoing[static_cast<std::size_t>(cmap.owner_of(row))];
    acc_ext.drain(/*sorted=*/false, [&](LO c, double v) {
      out.push_back(Triple{row, ext[c], v});
    });
  }
  auto incoming_triples = comm.alltoallv(std::move(outgoing));

  auto coarse = std::make_shared<Matrix>(cmap);
  std::vector<GO> cols;
  std::vector<double> row_vals;
  for (const auto& part : incoming_triples) {
    for (std::size_t s = 0; s < part.size();) {
      const GO row = part[s].row;
      cols.clear();
      row_vals.clear();
      for (; s < part.size() && part[s].row == row; ++s) {
        cols.push_back(part[s].col);
        row_vals.push_back(part[s].val);
      }
      coarse->insert_global_values(row, cols, row_vals);
    }
  }
  coarse->fill_complete();
  return coarse;
}

void AmgPreconditioner::Prolongator::prolongate(const Vector& ec,
                                                Vector& z) const {
  ghost->do_import(ec, *import_plan, tpetra::CombineMode::kInsert);
  // Rows of P are independent, so the interpolation sweep threads over row
  // blocks like SpMV.
  const double* gv = ghost->local_view().data();
  double* zv = z.local_view().data();
  const std::int64_t* rp = row_ptr.data();
  const LO* ci = col.data();
  const double* va = val.data();
  util::parallel_for(
      0, static_cast<std::int64_t>(z.local_size()), tpetra::kRowGrain,
      [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          const std::int64_t end = rp[i + 1];
          for (std::int64_t k = rp[i]; k < end; ++k) acc += va[k] * gv[ci[k]];
          zv[i] += acc;
        }
      });
}

void AmgPreconditioner::Prolongator::restrict_to(const Vector& r,
                                                 Vector& rc) const {
  // A gather through P^T: rows are independent, so it threads like
  // prolongation, and each overlap entry sums its fine rows in ascending
  // order from 0 — exactly the serial scatter's order, so the sums are
  // bit-identical to it.
  const double* rv = r.local_view().data();
  double* cv = contrib->local_view().data();
  const std::int64_t* rp = t_row_ptr.data();
  const LO* ci = t_col.data();
  const double* va = t_val.data();
  util::parallel_for(
      0, static_cast<std::int64_t>(contrib->local_size()), tpetra::kRowGrain,
      [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t k = lo; k < hi; ++k) {
          double acc = 0.0;
          const std::int64_t end = rp[k + 1];
          for (std::int64_t q = rp[k]; q < end; ++q) acc += va[q] * rv[ci[q]];
          cv[k] = acc;
        }
      });
  rc.put_scalar(0.0);
  import_plan->apply_reverse<double>(contrib->local_view(), rc.local_view(),
                                     tpetra::CombineMode::kAdd);
}

void AmgPreconditioner::smooth(const Level& level, const Vector& r, Vector& z,
                               int sweeps, bool from_zero) const {
  const double* rv = r.local_view().data();
  const double* dv = level.inv_diag.local_view().data();
  const double* azv = level.az.local_view().data();
  double* zv = z.local_view().data();
  const double omega = options_.jacobi_omega;
  const auto n = static_cast<std::int64_t>(z.local_size());
  int s = 0;
  if (from_zero) {
    if (sweeps == 0) {
      z.put_scalar(0.0);
      return;
    }
    // z = 0, so A z = 0 and the sweep reduces to z = omega D^{-1} r.
    util::parallel_for(0, n, util::kDefaultGrain,
                       [=](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           zv[i] = omega * dv[i] * rv[i];
                         }
                       });
    s = 1;
  }
  for (; s < sweeps; ++s) {
    level.a->apply(z, level.az);
    util::parallel_for(0, n, util::kDefaultGrain,
                       [=](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           zv[i] += omega * dv[i] * (rv[i] - azv[i]);
                         }
                       });
  }
}

void AmgPreconditioner::vcycle(std::size_t lvl, const Vector& r,
                               Vector& z) const {
  const Level& level = levels_[lvl];
  if (lvl + 1 == levels_.size()) {
    if (!coarse_lu_) {
      // Coarsening stalled here: smooth instead of a direct solve.
      smooth(level, r, z,
             options_.pre_smooth_sweeps + options_.post_smooth_sweeps,
             /*from_zero=*/true);
      return;
    }
    // Coarsest: replicated dense solve.
    auto x = r.gather_global();
    coarse_lu_->solve_in_place(x);
    const Map& map = level.a->row_map();
    for (LO i = 0; i < map.num_local(); ++i) {
      z[i] = x[static_cast<std::size_t>(map.local_to_global(i))];
    }
    return;
  }

  smooth(level, r, z, options_.pre_smooth_sweeps, /*from_zero=*/true);

  Vector& resid = level.az;
  level.a->apply(z, resid);
  resid.update(1.0, r, -1.0);

  level.p.restrict_to(resid, *level.rc);
  vcycle(lvl + 1, *level.rc, *level.ec);
  level.p.prolongate(*level.ec, z);

  smooth(level, r, z, options_.post_smooth_sweeps, /*from_zero=*/false);
}

void AmgPreconditioner::apply(const Vector& r, Vector& z) const {
  vcycle(0, r, z);
}

std::vector<std::int64_t> AmgPreconditioner::level_sizes() const {
  std::vector<std::int64_t> out;
  out.reserve(levels_.size());
  for (const auto& level : levels_) {
    out.push_back(level.a->row_map().num_global());
  }
  return out;
}

double AmgPreconditioner::operator_complexity() const {
  double total = 0.0;
  for (const auto& level : levels_) {
    total += static_cast<double>(level.a->num_global_entries());
  }
  return total / static_cast<double>(levels_.front().a->num_global_entries());
}

}  // namespace pyhpc::precond
