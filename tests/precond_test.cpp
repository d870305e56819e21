// Tests for the preconditioner stack: exactness on diagonal systems,
// residual-reduction properties on Laplacians, ILU(0) exactness on
// triangular-friendly systems, AMG hierarchy structure and V-cycle
// contraction.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "precond/amg.hpp"
#include "precond/preconditioner.hpp"
#include "solvers/krylov.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace pp = pyhpc::precond;

using LO = std::int32_t;
using GO = std::int64_t;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4};

// ||r - A M^{-1} r|| / ||r||: how much one preconditioner application
// reduces a random residual when used as a stationary step.
double one_step_reduction(const gl::Matrix& a, const pp::Preconditioner& m,
                          std::uint64_t seed) {
  gl::Vector r(a.range_map());
  r.randomize(seed);
  gl::Vector z(a.domain_map()), az(a.range_map());
  m.apply(r, z);
  a.apply(z, az);
  az.update(1.0, r, -1.0);  // az := r - A z
  return az.norm2() / r.norm2();
}
}  // namespace

class PrecondSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PrecondSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(PrecondSweep, IdentityCopies) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 10);
    gl::Vector r(map);
    r.randomize(1);
    gl::Vector z(map);
    pp::IdentityPreconditioner id;
    id.apply(r, z);
    for (LO i = 0; i < r.local_size(); ++i) EXPECT_DOUBLE_EQ(z[i], r[i]);
  });
}

TEST_P(PrecondSweep, JacobiExactOnDiagonalMatrix) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 14);
    gl::Matrix d(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      d.insert_global_value(g, g, static_cast<double>(g + 2));
    }
    d.fill_complete();
    pp::JacobiPreconditioner jac(d);
    EXPECT_NEAR(one_step_reduction(d, jac, 2), 0.0, 1e-14);
  });
}

TEST_P(PrecondSweep, JacobiSweepsReduceLaplacianResidual) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 40);
    auto a = gl::laplace1d(map);
    pp::JacobiPreconditioner one_sweep(a, 0.8, 1);
    pp::JacobiPreconditioner five_sweeps(a, 0.8, 5);
    const double r1 = one_step_reduction(a, one_sweep, 3);
    const double r5 = one_step_reduction(a, five_sweeps, 3);
    EXPECT_LT(r5, r1);  // more sweeps, better approximation of A^{-1}
    EXPECT_LT(r5, 1.0);
  });
}

TEST_P(PrecondSweep, GaussSeidelBeatsJacobiOnLaplacian) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 40);
    auto a = gl::laplace1d(map);
    pp::JacobiPreconditioner jac(a, 1.0, 1);
    pp::GaussSeidelPreconditioner gs(a, 1.0, 1);
    EXPECT_LT(one_step_reduction(a, gs, 4), one_step_reduction(a, jac, 4));
  });
}

TEST_P(PrecondSweep, SymmetricGsIsSymmetricOperator) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // For SPD A, symmetric GS gives a symmetric M^{-1}: check
    // x . M^{-1} y == y . M^{-1} x on random vectors (single rank keeps
    // hybrid-GS equal to true GS; multirank stays near-symmetric but we
    // only assert the single-rank exact case).
    if (comm.size() > 1) return;
    auto map = gl::Map::uniform(comm, 25);
    auto a = gl::laplace1d(map);
    pp::GaussSeidelPreconditioner sgs(
        a, 1.0, 1, pp::GaussSeidelPreconditioner::Direction::kSymmetric);
    gl::Vector x(map), y(map), mx(map), my(map);
    x.randomize(5);
    y.randomize(6);
    sgs.apply(y, my);
    sgs.apply(x, mx);
    EXPECT_NEAR(x.dot(my), y.dot(mx), 1e-10);
  });
}

TEST_P(PrecondSweep, Ilu0ExactForTriangularPattern) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // On one rank, ILU(0) of a dense-banded lower+upper pattern with no
    // fill (tridiagonal) is an exact LU, so M^{-1} r solves exactly.
    auto map = gl::Map::uniform(comm, 30);
    auto a = gl::tridiag(map, -1.0, 3.0, -1.5);
    pp::Ilu0Preconditioner ilu(a);
    const double red = one_step_reduction(a, ilu, 7);
    if (comm.size() == 1) {
      EXPECT_NEAR(red, 0.0, 1e-12);  // tridiagonal ILU(0) == exact LU
    } else {
      EXPECT_LT(red, 1.0);  // block-local ILU still reduces
    }
  });
}

TEST_P(PrecondSweep, ChebyshevReducesResidual) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 50);
    auto a = gl::laplace1d(map);
    pp::ChebyshevPreconditioner cheb(a, 4);
    EXPECT_GT(cheb.lambda_max(), 0.0);
    EXPECT_LT(one_step_reduction(a, cheb, 8), 1.0);
  });
}

TEST(Precond, ZeroDiagonalRejected) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 4);
    gl::Matrix a(map);
    a.insert_global_value(0, 1, 1.0);
    a.insert_global_value(1, 0, 1.0);
    a.insert_global_value(2, 2, 1.0);
    a.insert_global_value(3, 3, 1.0);
    a.fill_complete();
    EXPECT_THROW(pp::JacobiPreconditioner jac(a), pyhpc::Error);
    EXPECT_THROW(pp::Ilu0Preconditioner ilu(a), pyhpc::Error);
  });
}

TEST(Precond, FactoryCreatesAllKinds) {
  pc::run(1, [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 12);
    auto a = gl::laplace1d(map);
    for (const auto* kind :
         {"identity", "jacobi", "gauss-seidel", "sor", "ilu0", "chebyshev"}) {
      auto m = pp::create_preconditioner(kind, a);
      ASSERT_NE(m, nullptr) << kind;
      gl::Vector r(map, 1.0), z(map);
      m->apply(r, z);
      EXPECT_GT(z.norm2(), 0.0) << kind;
    }
    EXPECT_THROW((void)pp::create_preconditioner("voodoo", a),
                 pyhpc::InvalidArgument);
  });
}

// ---------------------------------------------------------------------------
// AMG
// ---------------------------------------------------------------------------

class AmgSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, AmgSweep, ::testing::ValuesIn(kRankCounts));

TEST_P(AmgSweep, HierarchyCoarsensMonotonically) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 400);
    auto a = gl::laplace1d(map);
    pp::AmgPreconditioner amg(a);
    const auto sizes = amg.level_sizes();
    ASSERT_GE(sizes.size(), 2u);
    EXPECT_EQ(sizes.front(), 400);
    for (std::size_t l = 1; l < sizes.size(); ++l) {
      EXPECT_LT(sizes[l], sizes[l - 1]);
    }
    EXPECT_LE(sizes.back(), 32 * 3);  // close to the coarse target
    EXPECT_GE(amg.operator_complexity(), 1.0);
    EXPECT_LT(amg.operator_complexity(), 3.0);
  });

  // The hierarchy of laplace2d(24, 24), pinned per rank count: level sizes
  // and operator complexity (a ratio of integer nnz counts, so exact).
  const int p = GetParam();
  pc::run(p, [p](pc::Communicator& comm) {
    const std::vector<std::int64_t> kSizes[] = {
        {576, 102, 12}, {576, 102, 12}, {576, 102, 15}, {576, 104, 12}};
    const double kComplexity[] = {1.3397988505747127, 1.3498563218390804,
                                  1.3732040229885059, 1.3872126436781609};
    auto a = gl::laplace2d(comm, 24, 24);
    pp::AmgPreconditioner amg(a);
    EXPECT_EQ(amg.level_sizes(), kSizes[p - 1]);
    EXPECT_EQ(amg.operator_complexity(), kComplexity[p - 1]);
  });
}

TEST_P(AmgSweep, VcycleContractsLaplacianResidual) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::laplace2d(comm, 16, 16);
    pp::AmgPreconditioner amg(a);
    const double red = one_step_reduction(a, amg, 11);
    EXPECT_LT(red, 0.7) << "one V-cycle should contract the residual well";
  });
}

TEST_P(AmgSweep, CoarseOnlyProblemSolvedExactly) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // Global size below coarse_size: AMG is a single replicated LU level
    // and must be exact.
    auto map = gl::Map::uniform(comm, 20);
    auto a = gl::laplace1d(map);
    pp::AmgOptions opt;
    opt.coarse_size = 32;
    pp::AmgPreconditioner amg(a, opt);
    EXPECT_EQ(amg.num_levels(), 1);
    EXPECT_NEAR(one_step_reduction(a, amg, 13), 0.0, 1e-10);
  });
}

TEST_P(AmgSweep, StalledCoarseningSmoothsInsteadOfFactoring) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    // A diagonal matrix has no couplings to aggregate, so coarsening stalls
    // on the first level. That level must be smoothed (pre + post Jacobi
    // sweeps from z = 0), not factored densely: a dense LU of n = 4000
    // would take O(n^2) memory and O(n^3) time.
    auto map = gl::Map::uniform(comm, 4000);
    gl::Matrix d(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      d.insert_global_value(g, g, static_cast<double>(2 + g % 7));
    }
    d.fill_complete();
    pp::AmgPreconditioner amg(d);
    EXPECT_EQ(amg.level_sizes(), std::vector<std::int64_t>{4000});

    // Two sweeps on D z = r from 0: z = omega (2 - omega) D^{-1} r.
    gl::Vector r(map);
    r.randomize(29);
    gl::Vector z(map);
    amg.apply(r, z);
    const double omega = pp::AmgOptions{}.jacobi_omega;
    for (LO i = 0; i < map.num_local(); ++i) {
      const double dii = static_cast<double>(2 + map.local_to_global(i) % 7);
      const double want = omega * (2.0 - omega) * r[i] / dii;
      EXPECT_NEAR(z[i], want, 1e-14 * std::abs(want));
    }

    // A scaled D^{-1} is an exact preconditioner up to a constant: PCG
    // converges in one iteration.
    auto b = gl::rhs_for_ones(d);
    gl::Vector x(map, 0.0);
    auto res = pyhpc::solvers::cg_solve(d, b, x, {}, &amg);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 1);
  });
}

TEST_P(AmgSweep, RespectsMaxLevels) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 500);
    auto a = gl::laplace1d(map);
    pp::AmgOptions opt;
    opt.max_levels = 2;
    opt.coarse_size = 8;
    pp::AmgPreconditioner amg(a, opt);
    EXPECT_EQ(amg.num_levels(), 2);
    // Still usable: as a stationary iteration x_{k+1} = x_k + M(b - A x_k)
    // the truncated two-grid must converge (the single-cycle l2 residual on
    // a random RHS may transiently grow, so measure over several cycles).
    gl::Vector b(map);
    b.randomize(17);
    gl::Vector x(map, 0.0), r(map), z(map);
    const double b0 = b.norm2();
    for (int cycle = 0; cycle < 8; ++cycle) {
      a.apply(x, r);
      r.update(1.0, b, -1.0);
      amg.apply(r, z);
      x.update(1.0, z, 1.0);
    }
    a.apply(x, r);
    r.update(1.0, b, -1.0);
    EXPECT_LT(r.norm2() / b0, 0.05);
  });
}
