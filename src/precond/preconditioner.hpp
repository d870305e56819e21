// Preconditioner interface plus the classic Ifpack-style point
// preconditioners: Jacobi (damped), hybrid Gauss-Seidel / SOR / symmetric
// GS, and Chebyshev polynomial smoothing.
//
// Distributed semantics follow Ifpack: relaxation sweeps are processor-local
// (off-rank couplings are frozen at the ghosted values of the previous
// sweep), which keeps each sweep at one halo exchange.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "tpetra/crs_matrix.hpp"
#include "tpetra/operator.hpp"
#include "tpetra/vector.hpp"
#include "util/task_pool.hpp"

namespace pyhpc::precond {

using Matrix = tpetra::CrsMatrix<double>;
using Vector = tpetra::Vector<double>;
using Map = tpetra::Map<>;
using LO = std::int32_t;
using GO = std::int64_t;

/// z := M^{-1} r. Implementations are collective across the matrix's
/// communicator.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const Vector& r, Vector& z) const = 0;
  virtual std::string name() const = 0;
};

/// No-op preconditioner (M = I).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vector& r, Vector& z) const override {
    z.update(1.0, r, 0.0);
  }
  std::string name() const override { return "Identity"; }
};

/// Damped point-Jacobi: `sweeps` iterations of
///   z <- z + omega D^{-1} (r - A z), starting from z = 0.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const Matrix& a, double omega = 1.0,
                                int sweeps = 1)
      : a_(a), omega_(omega), sweeps_(sweeps), inv_diag_(a.row_map()) {
    require(sweeps >= 1, "Jacobi: need at least one sweep");
    Vector diag(a.row_map());
    a.get_local_diag_copy(diag);
    for (LO i = 0; i < diag.local_size(); ++i) {
      require<NumericalError>(diag[i] != 0.0, "Jacobi: zero diagonal entry");
      inv_diag_[i] = 1.0 / diag[i];
    }
  }

  void apply(const Vector& r, Vector& z) const override {
    const double* rv = r.local_view().data();
    const double* dv = inv_diag_.local_view().data();
    double* zv = z.local_view().data();
    const double omega = omega_;
    const auto n = static_cast<std::int64_t>(z.local_size());
    // First sweep from z=0 is just z = omega D^-1 r — no matvec needed.
    util::parallel_for(0, n, util::kDefaultGrain,
                       [=](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           zv[i] = omega * dv[i] * rv[i];
                         }
                       });
    Vector az(a_.range_map());
    for (int s = 1; s < sweeps_; ++s) {
      a_.apply(z, az);
      const double* azv = az.local_view().data();
      util::parallel_for(0, n, util::kDefaultGrain,
                         [=](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                             zv[i] += omega * dv[i] * (rv[i] - azv[i]);
                           }
                         });
    }
  }

  std::string name() const override { return "Jacobi"; }

 private:
  const Matrix& a_;
  double omega_;
  int sweeps_;
  Vector inv_diag_;
};

/// Hybrid (processor-local) Gauss-Seidel / SOR. direction selects forward,
/// backward, or symmetric sweeps; omega = 1 gives classic GS.
class GaussSeidelPreconditioner final : public Preconditioner {
 public:
  enum class Direction { kForward, kBackward, kSymmetric };

  explicit GaussSeidelPreconditioner(const Matrix& a, double omega = 1.0,
                                     int sweeps = 1,
                                     Direction direction = Direction::kSymmetric)
      : a_(a),
        omega_(omega),
        sweeps_(sweeps),
        direction_(direction),
        ghost_(a.col_map()) {
    require(sweeps >= 1, "GaussSeidel: need at least one sweep");
    require(omega > 0.0 && omega < 2.0,
            "GaussSeidel: omega must lie in (0, 2)");
    // Cache inverse diagonal using column-map local ids for the sweep loop.
    Vector diag(a.row_map());
    a.get_local_diag_copy(diag);
    inv_diag_.resize(static_cast<std::size_t>(a.row_map().num_local()));
    for (LO i = 0; i < diag.local_size(); ++i) {
      require<NumericalError>(diag[i] != 0.0,
                              "GaussSeidel: zero diagonal entry");
      inv_diag_[static_cast<std::size_t>(i)] = 1.0 / diag[i];
    }
  }

  void apply(const Vector& r, Vector& z) const override {
    z.put_scalar(0.0);
    for (int s = 0; s < sweeps_; ++s) {
      if (direction_ != Direction::kBackward) sweep(r, z, /*forward=*/true);
      if (direction_ != Direction::kForward) sweep(r, z, /*forward=*/false);
    }
  }

  std::string name() const override {
    return omega_ == 1.0 ? "GaussSeidel" : "SOR";
  }

 private:
  // One local sweep; ghost entries are refreshed once per sweep (hybrid GS).
  void sweep(const Vector& r, Vector& z, bool forward) const {
    a_.import_to_col_layout(z, ghost_);
    auto gv = ghost_.local_view();
    const LO n = a_.row_map().num_local();
    auto row_ptr = a_.row_ptr();
    auto col_ind = a_.col_ind();
    auto vals = a_.values();
    const LO begin = forward ? 0 : n - 1;
    const LO end = forward ? n : -1;
    const LO step = forward ? 1 : -1;
    for (LO i = begin; i != end; i += step) {
      double acc = r[i];
      for (auto k = row_ptr[static_cast<std::size_t>(i)];
           k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const LO c = col_ind[static_cast<std::size_t>(k)];
        if (c == i) continue;
        // Owned columns read the in-sweep value; ghosts the imported copy.
        const double xc = (c < n) ? z[c] : gv[static_cast<std::size_t>(c)];
        acc -= vals[static_cast<std::size_t>(k)] * xc;
      }
      const double zi_new = inv_diag_[static_cast<std::size_t>(i)] * acc;
      z[i] = (1.0 - omega_) * z[i] + omega_ * zi_new;
    }
  }

  const Matrix& a_;
  double omega_;
  int sweeps_;
  Direction direction_;
  std::vector<double> inv_diag_;
  mutable Vector ghost_;
};

/// Chebyshev polynomial preconditioner over the interval
/// [lambda_max / ratio, lambda_max]; lambda_max is estimated with a few
/// power iterations on D^{-1} A when not supplied.
class ChebyshevPreconditioner final : public Preconditioner {
 public:
  explicit ChebyshevPreconditioner(const Matrix& a, int degree = 3,
                                   double eig_ratio = 30.0,
                                   double lambda_max_hint = 0.0)
      : a_(a), degree_(degree), inv_diag_(a.row_map()) {
    require(degree >= 1, "Chebyshev: degree must be >= 1");
    Vector diag(a.row_map());
    a.get_local_diag_copy(diag);
    for (LO i = 0; i < diag.local_size(); ++i) {
      require<NumericalError>(diag[i] != 0.0, "Chebyshev: zero diagonal");
      inv_diag_[i] = 1.0 / diag[i];
    }
    lambda_max_ = lambda_max_hint > 0.0 ? lambda_max_hint
                                        : estimate_lambda_max(10);
    lambda_min_ = lambda_max_ / eig_ratio;
  }

  void apply(const Vector& r, Vector& z) const override {
    // Standard Chebyshev smoothing recurrence on D^{-1}A with z0 = 0.
    const double d = (lambda_max_ + lambda_min_) / 2.0;
    const double c = (lambda_max_ - lambda_min_) / 2.0;
    Vector p(a_.range_map());
    Vector scratch(a_.range_map());
    z.put_scalar(0.0);
    double alpha = 0.0, beta = 0.0;
    const double* rv = r.local_view().data();
    const double* dv = inv_diag_.local_view().data();
    double* sv = scratch.local_view().data();
    const auto n = static_cast<std::int64_t>(scratch.local_size());
    for (int k = 0; k < degree_; ++k) {
      // residual of the preconditioned system: s = D^-1 (r - A z)
      a_.apply(z, scratch);
      util::parallel_for(0, n, util::kDefaultGrain,
                         [=](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                             sv[i] = dv[i] * (rv[i] - sv[i]);
                           }
                         });
      if (k == 0) {
        alpha = 1.0 / d;
        p.update(1.0, scratch, 0.0);
      } else {
        beta = (c * alpha / 2.0) * (c * alpha / 2.0);
        alpha = 1.0 / (d - beta / alpha);
        p.update(1.0, scratch, beta);
      }
      z.update(alpha, p, 1.0);
    }
  }

  double lambda_max() const { return lambda_max_; }
  std::string name() const override { return "Chebyshev"; }

 private:
  double estimate_lambda_max(int iters) const {
    Vector v(a_.range_map());
    v.randomize(12345);
    double lambda = 1.0;
    Vector av(a_.range_map());
    for (int it = 0; it < iters; ++it) {
      const double nrm = v.norm2();
      if (nrm == 0.0) break;
      v.scale(1.0 / nrm);
      a_.apply(v, av);
      for (LO i = 0; i < av.local_size(); ++i) av[i] *= inv_diag_[i];
      lambda = std::abs(v.dot(av));
      v.update(1.0, av, 0.0);
    }
    return lambda * 1.1;  // safety margin
  }

  const Matrix& a_;
  int degree_;
  Vector inv_diag_;
  double lambda_max_ = 0.0;
  double lambda_min_ = 0.0;
};

/// Local ILU(0): incomplete LU on this rank's diagonal block with the
/// original sparsity pattern; off-rank couplings are dropped (zero-overlap
/// additive Schwarz, Ifpack's default).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const Matrix& a);

  void apply(const Vector& r, Vector& z) const override;

  std::string name() const override { return "ILU(0)"; }

 private:
  LO n_ = 0;
  // Local CSR of the factored diagonal block: row_ptr/col/val with L
  // (unit-diagonal, stored strictly lower), D (inverted), U (strictly
  // upper) interleaved in column-sorted order per row.
  std::vector<std::int64_t> row_ptr_;
  std::vector<LO> col_;
  std::vector<double> val_;
  std::vector<std::int64_t> diag_pos_;
};

/// Factory keyed by name: "identity", "jacobi", "gauss-seidel", "sor",
/// "ilu0", "chebyshev".
std::unique_ptr<Preconditioner> create_preconditioner(const std::string& kind,
                                                      const Matrix& a);

}  // namespace pyhpc::precond
