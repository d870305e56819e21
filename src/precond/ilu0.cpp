#include <algorithm>

#include "precond/preconditioner.hpp"
#include "util/task_pool.hpp"

namespace pyhpc::precond {

// Extracts the local diagonal block (columns with local id < n are owned),
// sorts each row by column, and runs the classic IKJ ILU(0) factorization
// in place.
Ilu0Preconditioner::Ilu0Preconditioner(const Matrix& a) {
  require<MapError>(a.is_fill_complete(), "ILU(0): matrix not fill-complete");
  n_ = a.row_map().num_local();
  auto arp = a.row_ptr();
  auto aci = a.col_ind();
  auto av = a.values();

  // Diagonal-block extraction threads over row blocks (rows independent);
  // only the prefix sum between the two sweeps is serial. The IKJ
  // factorization below and the triangular solves in apply() stay serial —
  // both carry loop-carried dependencies across rows.
  const LO n = n_;
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  util::parallel_for(
      0, static_cast<std::int64_t>(n_), tpetra::kRowGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          std::int64_t cnt = 0;
          for (auto k = arp[static_cast<std::size_t>(i)];
               k < arp[static_cast<std::size_t>(i) + 1]; ++k) {
            if (aci[static_cast<std::size_t>(k)] < n) ++cnt;
          }
          row_ptr_[static_cast<std::size_t>(i) + 1] = cnt;
        }
      });
  for (LO i = 0; i < n_; ++i) {
    row_ptr_[static_cast<std::size_t>(i) + 1] +=
        row_ptr_[static_cast<std::size_t>(i)];
  }
  col_.resize(static_cast<std::size_t>(row_ptr_.back()));
  val_.resize(static_cast<std::size_t>(row_ptr_.back()));
  diag_pos_.assign(static_cast<std::size_t>(n_), -1);

  util::parallel_for(
      0, static_cast<std::int64_t>(n_), tpetra::kRowGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::pair<LO, double>> row;
        for (std::int64_t i = lo; i < hi; ++i) {
          row.clear();
          for (auto k = arp[static_cast<std::size_t>(i)];
               k < arp[static_cast<std::size_t>(i) + 1]; ++k) {
            const LO c = aci[static_cast<std::size_t>(k)];
            if (c < n) row.emplace_back(c, av[static_cast<std::size_t>(k)]);
          }
          std::sort(row.begin(), row.end());
          std::size_t k =
              static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i)]);
          for (const auto& [c, v] : row) {
            col_[k] = c;
            val_[k] = v;
            if (c == static_cast<LO>(i)) {
              diag_pos_[static_cast<std::size_t>(i)] =
                  static_cast<std::int64_t>(k);
            }
            ++k;
          }
          require<NumericalError>(diag_pos_[static_cast<std::size_t>(i)] >= 0,
                                  "ILU(0): structurally zero diagonal");
        }
      });

  // IKJ factorization restricted to the existing pattern.
  // For each row i, for each k < i present in row i:
  //   a_ik /= a_kk; then for j > k present in both row i and row k:
  //   a_ij -= a_ik * a_kj.
  std::vector<std::int64_t> pos_in_row(static_cast<std::size_t>(n_), -1);
  for (LO i = 0; i < n_; ++i) {
    const auto beg = row_ptr_[static_cast<std::size_t>(i)];
    const auto end = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (auto k = beg; k < end; ++k) {
      pos_in_row[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])] = k;
    }
    for (auto kk = beg; kk < end; ++kk) {
      const LO k = col_[static_cast<std::size_t>(kk)];
      if (k >= i) break;  // columns sorted; done with the strictly-lower part
      const double dkk = val_[static_cast<std::size_t>(
          diag_pos_[static_cast<std::size_t>(k)])];
      require<NumericalError>(dkk != 0.0, "ILU(0): zero pivot");
      const double lik = val_[static_cast<std::size_t>(kk)] / dkk;
      val_[static_cast<std::size_t>(kk)] = lik;
      // Update row i with row k's upper part, pattern-restricted.
      for (auto kj = diag_pos_[static_cast<std::size_t>(k)] + 1;
           kj < row_ptr_[static_cast<std::size_t>(k) + 1]; ++kj) {
        const LO j = col_[static_cast<std::size_t>(kj)];
        const auto pij = pos_in_row[static_cast<std::size_t>(j)];
        if (pij >= 0) {
          val_[static_cast<std::size_t>(pij)] -=
              lik * val_[static_cast<std::size_t>(kj)];
        }
      }
    }
    for (auto k = beg; k < end; ++k) {
      pos_in_row[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])] = -1;
    }
    require<NumericalError>(
        val_[static_cast<std::size_t>(diag_pos_[static_cast<std::size_t>(i)])] !=
            0.0,
        "ILU(0): zero pivot after elimination");
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  // Solve L y = r (unit lower), then U z = y.
  require(r.local_size() == n_ && z.local_size() == n_,
          "ILU(0): vector size mismatch");
  std::vector<double> y(static_cast<std::size_t>(n_));
  for (LO i = 0; i < n_; ++i) {
    double acc = r[i];
    for (auto k = row_ptr_[static_cast<std::size_t>(i)];
         k < diag_pos_[static_cast<std::size_t>(i)]; ++k) {
      acc -= val_[static_cast<std::size_t>(k)] *
             y[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  for (LO i = n_ - 1; i >= 0; --i) {
    double acc = y[static_cast<std::size_t>(i)];
    for (auto k = diag_pos_[static_cast<std::size_t>(i)] + 1;
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      acc -= val_[static_cast<std::size_t>(k)] *
             static_cast<double>(z[col_[static_cast<std::size_t>(k)]]);
    }
    z[i] = acc / val_[static_cast<std::size_t>(
                     diag_pos_[static_cast<std::size_t>(i)])];
  }
}

std::unique_ptr<Preconditioner> create_preconditioner(const std::string& kind,
                                                      const Matrix& a) {
  if (kind == "identity" || kind == "none") {
    return std::make_unique<IdentityPreconditioner>();
  }
  if (kind == "jacobi") return std::make_unique<JacobiPreconditioner>(a);
  if (kind == "gauss-seidel") {
    return std::make_unique<GaussSeidelPreconditioner>(a);
  }
  if (kind == "sor") {
    return std::make_unique<GaussSeidelPreconditioner>(
        a, 1.5, 1, GaussSeidelPreconditioner::Direction::kForward);
  }
  if (kind == "ilu0") return std::make_unique<Ilu0Preconditioner>(a);
  if (kind == "chebyshev") return std::make_unique<ChebyshevPreconditioner>(a);
  throw InvalidArgument("create_preconditioner: unknown kind '" + kind + "'");
}

}  // namespace pyhpc::precond
