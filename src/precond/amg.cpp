#include "precond/amg.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>

#include "util/task_pool.hpp"

namespace pyhpc::precond {

AmgPreconditioner::AmgPreconditioner(const Matrix& a, AmgOptions options)
    : options_(options) {
  require(options_.max_levels >= 1, "AMG: max_levels must be >= 1");
  require(options_.coarse_size >= 1, "AMG: coarse_size must be >= 1");
  build_hierarchy(std::make_shared<Matrix>(a));
}

void AmgPreconditioner::build_hierarchy(std::shared_ptr<Matrix> a) {
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
      break;
    }

    a = build_transfer_and_coarse(level, agg_of);
  }

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
  auto& comm = fmap.comm();
  const int nranks = comm.size();
  const LO n = fmap.num_local();

  // Global aggregate id per fine row, ghosted into the column layout so the
  // smoothing sum can see the aggregates of remote neighbours.
  tpetra::Vector<GO> agg_gid(fmap);
  for (LO i = 0; i < n; ++i) {
    agg_gid[i] = cmap.local_to_global(agg_of[static_cast<std::size_t>(i)]);
  }
  tpetra::Vector<GO> agg_gid_ghost(a.col_map());
  agg_gid_ghost.do_import(agg_gid, a.importer(), tpetra::CombineMode::kInsert);

  // Prolongator rows as (coarse gid -> weight) maps:
  //   P(i, :) = e_{agg(i)} - omega * d_i^{-1} * sum_j A(i,j) e_{agg(j)}.
  double omega = 0.0;
  if (options_.prolongator_damping > 0.0) {
    omega = options_.prolongator_damping /
            estimate_diag_scaled_lambda_max(a, level.inv_diag);
  }
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  auto vals = a.values();
  std::vector<std::map<GO, double>> prows(static_cast<std::size_t>(n));
  for (LO i = 0; i < n; ++i) {
    auto& row = prows[static_cast<std::size_t>(i)];
    row[agg_gid[i]] += 1.0;
    if (omega != 0.0) {
      for (auto k = row_ptr[static_cast<std::size_t>(i)];
           k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const GO target = agg_gid_ghost[col_ind[static_cast<std::size_t>(k)]];
        row[target] -= omega * level.inv_diag[i] *
                       vals[static_cast<std::size_t>(k)];
      }
    }
  }

  // Compress into local CSR over an overlap map of the referenced coarse
  // gids (owned aggregates may appear plus remote neighbours).
  std::vector<GO> referenced;
  for (const auto& row : prows) {
    for (const auto& [g, w] : row) referenced.push_back(g);
  }
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  std::unordered_map<GO, LO> ref_index;
  ref_index.reserve(referenced.size());
  for (std::size_t k = 0; k < referenced.size(); ++k) {
    ref_index.emplace(referenced[k], static_cast<LO>(k));
  }

  Prolongator& p = level.p;
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (LO i = 0; i < n; ++i) {
    p.row_ptr[static_cast<std::size_t>(i) + 1] =
        p.row_ptr[static_cast<std::size_t>(i)] +
        static_cast<std::int64_t>(prows[static_cast<std::size_t>(i)].size());
  }
  p.col.resize(static_cast<std::size_t>(p.row_ptr.back()));
  p.val.resize(static_cast<std::size_t>(p.row_ptr.back()));
  for (LO i = 0; i < n; ++i) {
    std::size_t k = static_cast<std::size_t>(p.row_ptr[static_cast<std::size_t>(i)]);
    for (const auto& [g, w] : prows[static_cast<std::size_t>(i)]) {
      p.col[k] = ref_index.at(g);
      p.val[k] = w;
      ++k;
    }
  }
  p.overlap_map = std::make_shared<Map>(
      Map::from_global_indices(comm, std::span<const GO>(referenced)));
  p.import_plan = std::make_shared<tpetra::Import<>>(cmap, *p.overlap_map);

  // ---- Galerkin A_c = P^T A P -------------------------------------------
  // Ghost fine rows' P entries are needed for the j side of the product:
  // request them from their owners.
  const Map& colmap = a.col_map();
  std::vector<std::vector<GO>> requests(static_cast<std::size_t>(nranks));
  std::vector<GO> ghost_gids;
  for (LO c = n; c < colmap.num_local(); ++c) {
    ghost_gids.push_back(colmap.local_to_global(c));
  }
  auto owners = fmap.remote_index_list(std::span<const GO>(ghost_gids));
  for (std::size_t k = 0; k < ghost_gids.size(); ++k) {
    require<MapError>(owners[k].first >= 0, "AMG: unowned ghost fine index");
    requests[static_cast<std::size_t>(owners[k].first)].push_back(
        ghost_gids[k]);
  }
  auto incoming_requests = comm.alltoallv(requests);

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
      for (auto k = p.row_ptr[static_cast<std::size_t>(li)];
           k < p.row_ptr[static_cast<std::size_t>(li) + 1]; ++k) {
        replies[static_cast<std::size_t>(r)].push_back(PEntry{
            fine,
            p.overlap_map->local_to_global(p.col[static_cast<std::size_t>(k)]),
            p.val[static_cast<std::size_t>(k)]});
      }
    }
  }
  auto incoming_rows = comm.alltoallv(replies);
  std::unordered_map<GO, std::vector<std::pair<GO, double>>> ghost_prows;
  for (const auto& part : incoming_rows) {
    for (const auto& e : part) {
      ghost_prows[e.fine].emplace_back(e.coarse, e.w);
    }
  }

  // Accumulate triple-product contributions; rows of A_c may belong to
  // remote ranks (smoothed P couples local fine rows to remote aggregates),
  // so route triples by owner before insertion.
  struct Triple {
    GO row;
    GO col;
    double val;
  };
  std::vector<std::vector<Triple>> outgoing(static_cast<std::size_t>(nranks));
  // Local accumulation map to compress duplicates before shipping.
  std::map<std::pair<GO, GO>, double> acc;

  auto p_row_of_local = [&](LO i) {
    std::vector<std::pair<GO, double>> out;
    for (auto k = p.row_ptr[static_cast<std::size_t>(i)];
         k < p.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      out.emplace_back(
          p.overlap_map->local_to_global(p.col[static_cast<std::size_t>(k)]),
          p.val[static_cast<std::size_t>(k)]);
    }
    return out;
  };

  for (LO i = 0; i < n; ++i) {
    const auto pi = p_row_of_local(i);
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const LO cj = col_ind[static_cast<std::size_t>(k)];
      const double aij = vals[static_cast<std::size_t>(k)];
      const std::vector<std::pair<GO, double>>* pj = nullptr;
      std::vector<std::pair<GO, double>> pj_local;
      if (cj < n) {
        pj_local = p_row_of_local(cj);
        pj = &pj_local;
      } else {
        pj = &ghost_prows.at(colmap.local_to_global(cj));
      }
      for (const auto& [bigK, pik] : pi) {
        for (const auto& [bigL, pjl] : *pj) {
          acc[{bigK, bigL}] += pik * aij * pjl;
        }
      }
    }
  }
  for (const auto& [key, v] : acc) {
    const int owner = cmap.owner_of(key.first);
    outgoing[static_cast<std::size_t>(owner)].push_back(
        Triple{key.first, key.second, v});
  }
  auto incoming_triples = comm.alltoallv(outgoing);

  auto coarse = std::make_shared<Matrix>(cmap);
  for (const auto& part : incoming_triples) {
    for (const auto& t : part) {
      coarse->insert_global_value(t.row, t.col, t.val);
    }
  }
  coarse->fill_complete();
  return coarse;
}

void AmgPreconditioner::Prolongator::prolongate(const Vector& ec,
                                                Vector& z) const {
  Vector ghost(*overlap_map);
  ghost.do_import(ec, *import_plan, tpetra::CombineMode::kInsert);
  // Rows of P are independent, so the interpolation sweep threads over row
  // blocks like SpMV. (restrict_to stays serial: it scatters into shared
  // overlap entries.)
  const double* gv = ghost.local_view().data();
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
  Vector contrib(*overlap_map, 0.0);
  const LO n = r.local_size();
  for (LO i = 0; i < n; ++i) {
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      contrib[col[static_cast<std::size_t>(k)]] +=
          val[static_cast<std::size_t>(k)] * r[i];
    }
  }
  rc.put_scalar(0.0);
  import_plan->apply_reverse<double>(contrib.local_view(), rc.local_view(),
                                     tpetra::CombineMode::kAdd);
}

void AmgPreconditioner::smooth(const Level& level, const Vector& r, Vector& z,
                               int sweeps) const {
  Vector az(level.a->range_map());
  const double* rv = r.local_view().data();
  const double* dv = level.inv_diag.local_view().data();
  const double* azv = az.local_view().data();
  double* zv = z.local_view().data();
  const double omega = options_.jacobi_omega;
  const auto n = static_cast<std::int64_t>(z.local_size());
  for (int s = 0; s < sweeps; ++s) {
    level.a->apply(z, az);
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
    // Coarsest: replicated dense solve.
    auto rg = r.gather_global();
    auto xg = coarse_lu_->solve(rg);
    const Map& map = level.a->row_map();
    for (LO i = 0; i < map.num_local(); ++i) {
      z[i] = xg[static_cast<std::size_t>(map.local_to_global(i))];
    }
    return;
  }

  smooth(level, r, z, options_.pre_smooth_sweeps);

  Vector resid(level.a->range_map());
  level.a->apply(z, resid);
  resid.update(1.0, r, -1.0);

  Vector rc(*level.coarse_map);
  level.p.restrict_to(resid, rc);
  Vector ec(*level.coarse_map, 0.0);
  vcycle(lvl + 1, rc, ec);
  level.p.prolongate(ec, z);

  smooth(level, r, z, options_.post_smooth_sweeps);
}

void AmgPreconditioner::apply(const Vector& r, Vector& z) const {
  z.put_scalar(0.0);
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
