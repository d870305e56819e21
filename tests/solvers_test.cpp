// Tests for the solver stack: Krylov methods on gallery matrices with every
// preconditioner, gathered direct solvers, eigensolvers against analytic
// spectra, and Newton/JFNK on nonlinear systems.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "precond/amg.hpp"
#include "precond/preconditioner.hpp"
#include "solvers/amesos.hpp"
#include "solvers/anasazi.hpp"
#include "solvers/krylov.hpp"
#include "solvers/factory.hpp"
#include "solvers/nox.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace pp = pyhpc::precond;
namespace sv = pyhpc::solvers;

using LO = std::int32_t;
using GO = std::int64_t;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4};

double solution_error_vs_ones(const gl::Vector& x) {
  gl::Vector err(x.map(), 1.0);
  err.update(1.0, x, -1.0);
  return err.norm2();
}
}  // namespace

class KrylovSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, KrylovSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(KrylovSweep, CgSolvesLaplace1d) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 64);
    auto a = gl::laplace1d(map);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map, 0.0);
    auto res = sv::cg_solve(a, b, x);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_LT(solution_error_vs_ones(x), 1e-6);
    // History is monotone-ish and ends below tolerance.
    ASSERT_FALSE(res.residual_history.empty());
    EXPECT_LE(res.residual_history.back(), 1e-8);
  });
}

TEST_P(KrylovSweep, PreconditionedCgConvergesFaster) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::laplace2d(comm, 20, 20);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x0(a.domain_map(), 0.0), x1(a.domain_map(), 0.0);
    auto plain = sv::cg_solve(a, b, x0);
    pp::AmgPreconditioner amg(a);
    auto pcg = sv::cg_solve(a, b, x1, {}, &amg);
    EXPECT_TRUE(plain.converged);
    EXPECT_TRUE(pcg.converged);
    EXPECT_LT(pcg.iterations, plain.iterations);
  });

  // PCG-AMG on laplace2d(24, 24) to 1e-10: the iteration count per rank
  // count is pinned, so a change to the AMG hierarchy or cycle shows.
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    const int kIterations[] = {13, 13, 13, 14};
    auto a = gl::laplace2d(comm, 24, 24);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(a.domain_map(), 0.0);
    pp::AmgPreconditioner amg(a);
    sv::KrylovOptions options;
    options.tolerance = 1e-10;
    auto res = sv::cg_solve(a, b, x, options, &amg);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_EQ(res.iterations, kIterations[p - 1]);
  });
}

TEST_P(KrylovSweep, BicgstabSolvesNonsymmetric) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::convection_diffusion_2d(comm, 12, 12, 8.0, 3.0);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(a.domain_map(), 0.0);
    auto res = sv::bicgstab_solve(a, b, x);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_LT(solution_error_vs_ones(x), 1e-5);
  });
}

TEST_P(KrylovSweep, GmresSolvesNonsymmetricWithIlu) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::convection_diffusion_2d(comm, 14, 14, -6.0, 9.0);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(a.domain_map(), 0.0);
    pp::Ilu0Preconditioner ilu(a);
    auto res = sv::gmres_solve(a, b, x, {}, &ilu);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_LT(solution_error_vs_ones(x), 1e-5);
  });
}

TEST_P(KrylovSweep, GmresRestartStillConverges) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 80);
    auto a = gl::laplace1d(map);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map, 0.0);
    sv::KrylovOptions opt;
    opt.gmres_restart = 5;  // force many restarts
    opt.max_iterations = 5000;
    auto res = sv::gmres_solve(a, b, x, opt);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_LT(solution_error_vs_ones(x), 1e-5);
  });
}

TEST_P(KrylovSweep, CgsSolvesDiagDominant) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 60);
    auto a = gl::random_diag_dominant(map, 3, 99);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map, 0.0);
    auto res = sv::cgs_solve(a, b, x);
    EXPECT_TRUE(res.converged) << res.summary();
    EXPECT_LT(solution_error_vs_ones(x), 1e-5);
  });
}

TEST(Krylov, CgRejectsIndefiniteOperator) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 4);
    gl::Matrix a(map);
    // diag(1, -1, 1, -1): indefinite.
    for (GO g = 0; g < 4; ++g) {
      a.insert_global_value(g, g, g % 2 == 0 ? 1.0 : -1.0);
    }
    a.fill_complete();
    gl::Vector b(map, 1.0), x(map, 0.0);
    EXPECT_THROW((void)sv::cg_solve(a, b, x), pyhpc::NumericalError);
  });
}

TEST(Krylov, ZeroRhsShortCircuits) {
  pc::run(2, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 10);
    auto a = gl::laplace1d(map);
    gl::Vector b(map, 0.0), x(map, 5.0);
    auto res = sv::cg_solve(a, b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_DOUBLE_EQ(x.norm2(), 0.0);
  });
}

TEST(Krylov, MaxIterationsReportsFailure) {
  pc::run(2, [](pc::Communicator& comm) {
    auto a = gl::laplace2d(comm, 24, 24);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(a.domain_map(), 0.0);
    sv::KrylovOptions opt;
    opt.max_iterations = 3;
    auto res = sv::cg_solve(a, b, x, opt);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 3);
    EXPECT_GT(res.achieved_tolerance, opt.tolerance);
  });
}

TEST(Krylov, FactoryAndOptionsFromParameters) {
  pyhpc::teuchos::ParameterList pl;
  pl.set("tolerance", 1e-4);
  pl.set("max iterations", 123);
  pl.set("gmres restart", 11);
  auto opt = sv::KrylovOptions::from_parameters(pl);
  EXPECT_EQ(opt.tolerance, 1e-4);
  EXPECT_EQ(opt.max_iterations, 123);
  EXPECT_EQ(opt.gmres_restart, 11);

  for (const auto* kind : {"cg", "bicgstab", "cgs", "gmres"}) {
    EXPECT_NO_THROW((void)sv::create_solver(kind));
  }
  EXPECT_THROW((void)sv::create_solver("magic"), pyhpc::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Direct solvers (Amesos)
// ---------------------------------------------------------------------------

class DirectSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DirectSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(DirectSweep, DenseLuSolvesExactly) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 30);
    auto a = gl::random_diag_dominant(map, 4, 5);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map);
    sv::DenseDirectSolver lu(a);
    lu.solve(b, x);
    EXPECT_LT(solution_error_vs_ones(x), 1e-10);
  });
}

TEST_P(DirectSweep, BandedLuSolvesTridiagonal) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 40);
    auto a = gl::tridiag(map, -1.0, 4.0, -2.0);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map);
    sv::BandedDirectSolver lu(a);
    EXPECT_EQ(lu.bandwidth(), 1);
    lu.solve(b, x);
    EXPECT_LT(solution_error_vs_ones(x), 1e-10);
  });
}

TEST_P(DirectSweep, FactoryBackendsAgree) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 24);
    auto a = gl::laplace1d(map);
    auto b = gl::sine_rhs(map);
    gl::Vector x1(map), x2(map);
    sv::create_direct_solver("lapack", a)->solve(b, x1);
    sv::create_direct_solver("klu", a)->solve(b, x2);
    x1.update(-1.0, x2, 1.0);
    EXPECT_LT(x1.norm2(), 1e-10);
    EXPECT_THROW((void)sv::create_direct_solver("umfpack2000", a),
                 pyhpc::InvalidArgument);
  });
}

TEST(Direct, SingularMatrixRejected) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 3);
    gl::Matrix a(map);
    a.insert_global_value(0, 0, 1.0);
    a.insert_global_value(1, 1, 1.0);
    // Row 2 left empty -> singular.
    a.fill_complete();
    EXPECT_THROW(sv::DenseDirectSolver lu(a), pyhpc::NumericalError);
  });
}

// ---------------------------------------------------------------------------
// Eigensolvers (Anasazi)
// ---------------------------------------------------------------------------

TEST(Eigen, TridiagEigenvaluesMatchAnalytic) {
  // Laplacian tridiagonal (2 on diag, -1 off): lambda_k = 2 - 2cos(k pi/(n+1)).
  const int n = 10;
  std::vector<double> d(n, 2.0), e(n - 1, -1.0);
  auto eigs = sv::tridiag_eigenvalues(d, e);  // ascending
  ASSERT_EQ(eigs.size(), static_cast<std::size_t>(n));
  for (int k = 1; k <= n; ++k) {
    const double want = 2.0 - 2.0 * std::cos(M_PI * k / (n + 1.0));
    EXPECT_NEAR(eigs[static_cast<std::size_t>(k - 1)], want, 1e-10);
  }
}

TEST(Eigen, TridiagRejectsBadSizes) {
  EXPECT_THROW((void)sv::tridiag_eigenvalues({1.0, 2.0}, {}),
               pyhpc::InvalidArgument);
}

class EigenSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, EigenSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(EigenSweep, PowerMethodFindsDominantEigenvalue) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 24;
    auto map = gl::Map::uniform(comm, n);
    auto a = gl::laplace1d(map);
    gl::Vector v(map);
    sv::EigenOptions opt;
    opt.tolerance = 1e-12;
    opt.max_iterations = 20000;
    auto res = sv::power_method(a, v, opt);
    const double want =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(n) /
                             (static_cast<double>(n) + 1.0));
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalues[0], want, 1e-6);
  });
}

TEST_P(EigenSweep, InverseIterationFindsSmallest) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 16;
    auto map = gl::Map::uniform(comm, n);
    auto a = gl::laplace1d(map);
    gl::Vector v(map);
    auto res = sv::inverse_iteration(a, 0.0, v);
    const double want = 2.0 - 2.0 * std::cos(M_PI / (static_cast<double>(n) + 1.0));
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalues[0], want, 1e-8);
  });
}

TEST_P(EigenSweep, LanczosFindsExtremalSpectrum) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const GO n = 40;
    auto map = gl::Map::uniform(comm, n);
    auto a = gl::laplace1d(map);
    auto res = sv::lanczos(a, 3, {}, /*subspace=*/static_cast<int>(n));
    ASSERT_GE(res.eigenvalues.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      const double want =
          2.0 - 2.0 * std::cos(M_PI * (static_cast<double>(n) - k) /
                               (static_cast<double>(n) + 1.0));
      EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(k)], want, 1e-8)
          << "eigenvalue " << k;
    }
  });
}

// ---------------------------------------------------------------------------
// Nonlinear solvers (NOX)
// ---------------------------------------------------------------------------

namespace {

// F_i(x) = x_i^3 + 2 x_i - 3 - b_i with solution x_i = 1 when b_i = 0.
// Diagonal nonlinear system -> easy analytic Jacobian.
sv::ResidualFn cubic_residual() {
  return [](const gl::Vector& x, gl::Vector& f) {
    for (LO i = 0; i < x.local_size(); ++i) {
      f[i] = x[i] * x[i] * x[i] + 2.0 * x[i] - 3.0;
    }
  };
}

sv::JacobianFn cubic_jacobian() {
  return [](const gl::Vector& x) {
    gl::Matrix j(x.map());
    for (LO i = 0; i < x.local_size(); ++i) {
      const GO g = x.map().local_to_global(i);
      j.insert_global_value(g, g, 3.0 * x[i] * x[i] + 2.0);
    }
    j.fill_complete();
    return j;
  };
}

}  // namespace

class NewtonSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, NewtonSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(NewtonSweep, NewtonSolvesCubic) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 20);
    gl::Vector x(map, 3.0);
    auto res = sv::newton_solve(cubic_residual(), cubic_jacobian(), x);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(solution_error_vs_ones(x), 1e-8);
    EXPECT_LT(res.iterations, 20);
    // Quadratic-ish convergence: history decreases.
    for (std::size_t i = 1; i < res.history.size(); ++i) {
      EXPECT_LE(res.history[i], res.history[i - 1] + 1e-15);
    }
  });
}

TEST_P(NewtonSweep, JfnkMatchesNewton) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 20);
    gl::Vector x(map, 2.0);
    auto res = sv::jfnk_solve(cubic_residual(), x);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(solution_error_vs_ones(x), 1e-7);
  });
}

TEST_P(NewtonSweep, FixedPointConvergesSlower) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 20);
    gl::Vector xn(map, 1.5), xf(map, 1.5);
    sv::NewtonOptions opt;
    opt.tolerance = 1e-9;
    auto newton = sv::newton_solve(cubic_residual(), cubic_jacobian(), xn, opt);
    opt.max_iterations = 2000;
    auto fixed = sv::fixed_point_solve(cubic_residual(), xf, 0.1, opt);
    EXPECT_TRUE(newton.converged);
    EXPECT_TRUE(fixed.converged);
    EXPECT_LT(newton.iterations, fixed.iterations);
  });
}

TEST(Newton, ReportsNonConvergence) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 5);
    // F(x) = exp(x) has no root: Newton must give up cleanly.
    sv::ResidualFn hopeless = [](const gl::Vector& x, gl::Vector& f) {
      for (LO i = 0; i < x.local_size(); ++i) f[i] = std::exp(x[i]);
    };
    sv::JacobianFn jac = [](const gl::Vector& x) {
      gl::Matrix j(x.map());
      for (LO i = 0; i < x.local_size(); ++i) {
        j.insert_global_value(x.map().local_to_global(i),
                              x.map().local_to_global(i), std::exp(x[i]));
      }
      j.fill_complete();
      return j;
    };
    gl::Vector x(map, 0.0);
    sv::NewtonOptions opt;
    opt.max_iterations = 5;
    auto res = sv::newton_solve(hopeless, jac, x, opt);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 5);
  });
}

// ---------------------------------------------------------------------------
// Parameter-driven facade (factory.hpp)
// ---------------------------------------------------------------------------

TEST(SolverFactory, ParameterListDrivesEverySolver) {
  pc::run(2, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 48);
    auto a = gl::laplace1d(map);
    auto b = gl::rhs_for_ones(a);
    for (const char* solver : {"cg", "bicgstab", "gmres", "lapack", "klu"}) {
      gl::Vector x(map, 0.0);
      pyhpc::teuchos::ParameterList pl;
      pl.set("solver", solver);
      pl.sublist("krylov").set("tolerance", 1e-9);
      auto res = sv::solve(a, b, x, pl);
      EXPECT_TRUE(res.converged) << solver;
      EXPECT_LT(solution_error_vs_ones(x), 1e-5) << solver;
    }
  });
}

TEST(SolverFactory, PreconditionerSelectionFromParameters) {
  pc::run(2, [](pc::Communicator& comm) {
    auto a = gl::laplace2d(comm, 20, 20);
    auto b = gl::rhs_for_ones(a);
    pyhpc::teuchos::ParameterList plain, amg;
    plain.set("solver", "cg");
    amg.set("solver", "cg");
    amg.set("preconditioner", "amg");
    amg.sublist("amg").set("pre sweeps", 2);
    gl::Vector x0(a.domain_map(), 0.0), x1(a.domain_map(), 0.0);
    auto r0 = sv::solve(a, b, x0, plain);
    auto r1 = sv::solve(a, b, x1, amg);
    EXPECT_TRUE(r0.converged);
    EXPECT_TRUE(r1.converged);
    EXPECT_LT(r1.iterations, r0.iterations);
  });
}

TEST(SolverFactory, UnknownNamesRejected) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 8);
    auto a = gl::laplace1d(map);
    auto b = gl::rhs_for_ones(a);
    gl::Vector x(map, 0.0);
    pyhpc::teuchos::ParameterList pl;
    pl.set("solver", "quantum");
    EXPECT_THROW((void)sv::solve(a, b, x, pl), pyhpc::InvalidArgument);
    pyhpc::teuchos::ParameterList pl2;
    pl2.set("preconditioner", "voodoo");
    EXPECT_THROW((void)sv::solve(a, b, x, pl2), pyhpc::InvalidArgument);
  });
}
