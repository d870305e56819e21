// Tests for EpetraExt: distributed transpose, MatrixMarket round-trips,
// and row/column scaling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "comm/runner.hpp"
#include "epetraext/epetraext.hpp"
#include "galeri/gallery.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace ee = pyhpc::epetraext;

using LO = std::int32_t;
using GO = std::int64_t;

namespace {
const std::vector<int> kRankCounts{1, 2, 3, 4};
}

class EpetraExtSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, EpetraExtSweep,
                         ::testing::ValuesIn(kRankCounts));

TEST_P(EpetraExtSweep, TransposeOfSymmetricIsIdentical) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 30);
    auto a = gl::laplace1d(map);
    auto at = ee::transpose(a);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      EXPECT_EQ(a.get_global_row(g), at.get_global_row(g));
    }
  });
}

TEST_P(EpetraExtSweep, TransposeReversesApply) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::convection_diffusion_2d(comm, 8, 8, 5.0, -3.0);
    auto at = ee::transpose(a);
    // y' (A x) == (A' y)' x for random x, y.
    gl::Vector x(a.domain_map()), y(a.domain_map());
    x.randomize(1);
    y.randomize(2);
    gl::Vector ax(a.range_map()), aty(a.range_map());
    a.apply(x, ax);
    at.apply(y, aty);
    EXPECT_NEAR(y.dot(ax), aty.dot(x), 1e-10);
  });
}

TEST_P(EpetraExtSweep, TransposeTwiceIsOriginal) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto a = gl::convection_diffusion_2d(comm, 6, 7, 2.0, 8.0);
    auto att = ee::transpose(ee::transpose(a));
    for (LO i = 0; i < a.num_local_rows(); ++i) {
      const GO g = a.row_map().local_to_global(i);
      auto r1 = a.get_global_row(g);
      auto r2 = att.get_global_row(g);
      ASSERT_EQ(r1.size(), r2.size());
      for (std::size_t k = 0; k < r1.size(); ++k) {
        EXPECT_EQ(r1[k].first, r2[k].first);
        EXPECT_NEAR(r1[k].second, r2[k].second, 1e-14);
      }
    }
  });
}

TEST_P(EpetraExtSweep, MatrixMarketRoundTrip) {
  const int p = GetParam();
  const std::string path =
      "/tmp/pyhpc_mm_" + std::to_string(p) + ".mtx";
  pc::run(p, [&](pc::Communicator& comm) {
    auto a = gl::convection_diffusion_2d(comm, 5, 5, 1.5, -2.5);
    ee::write_matrix_market(a, path);
    comm.barrier();  // ensure rank 0 finished writing
    auto back = ee::read_matrix_market(comm, path);
    EXPECT_EQ(back.row_map().num_global(), a.row_map().num_global());
    EXPECT_EQ(back.num_global_entries(), a.num_global_entries());
    EXPECT_NEAR(back.frobenius_norm(), a.frobenius_norm(), 1e-12);
    // Spot-check apply equivalence.
    gl::Vector x(a.domain_map());
    x.randomize(9);
    gl::Vector y1(a.range_map()), y2(a.range_map());
    a.apply(x, y1);
    back.apply(x, y2);
    y1.update(-1.0, y2, 1.0);
    EXPECT_LT(y1.norm2(), 1e-12);
  });
  std::remove(path.c_str());
}

TEST_P(EpetraExtSweep, VectorMarketRoundTrip) {
  const int p = GetParam();
  const std::string path = "/tmp/pyhpc_vec_" + std::to_string(p) + ".mtx";
  pc::run(p, [&](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 23);
    gl::Vector v(map);
    v.randomize(4);
    ee::write_vector_market(v, path);
    comm.barrier();
    auto back = ee::read_vector_market(comm, path);
    back.update(-1.0, v, 1.0);
    EXPECT_LT(back.norm2(), 1e-12);
  });
  std::remove(path.c_str());
}

TEST(EpetraExt, ReadMissingFileThrows) {
  EXPECT_THROW(pc::run(1,
                       [](pc::Communicator& comm) {
                         (void)ee::read_matrix_market(
                             comm, "/tmp/definitely_not_there.mtx");
                       }),
               pyhpc::Error);
}

TEST(EpetraExt, ReadMatrixMarketRejectsOutOfRangeEntries) {
  // A 4 x 4 file whose fifth entry lies outside the matrix. No rank owns
  // an out-of-range row, so every rank must reject the entry rather than
  // drop it; an out-of-range column must be rejected on every rank too,
  // not only on the row's owner.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pyhpc_mm_range.mtx")
          .string();
  for (const char* bad : {"0 1 7.0", "5 1 7.0", "1 5 7.0"}) {
    {
      std::ofstream out(path);
      out << "%%MatrixMarket matrix coordinate real general\n4 4 5\n"
          << "1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n"
          << bad << "\n";
    }
    for (int p : {1, 3}) {
      pc::run(p, [&](pc::Communicator& comm) {
        EXPECT_THROW((void)ee::read_matrix_market(comm, path),
                     pyhpc::InvalidArgument)
            << "entry \"" << bad << "\" p=" << p << " rank=" << comm.rank();
      });
    }
  }
  std::remove(path.c_str());
}

TEST_P(EpetraExtSweep, ScaleRowsColumns) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    auto map = gl::Map::uniform(comm, 18);
    auto a = gl::laplace1d(map);
    gl::Vector s(map), t(map);
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      s[i] = static_cast<double>(g + 1);
      t[i] = 1.0 / static_cast<double>(g + 1);
    }
    auto scaled = ee::scale_rows_columns(a, s, t);
    // Check one row per rank: entry (g, c) should be a(g,c)*(g+1)/(c+1).
    for (LO i = 0; i < map.num_local(); ++i) {
      const GO g = map.local_to_global(i);
      auto orig = a.get_global_row(g);
      auto got = scaled.get_global_row(g);
      ASSERT_EQ(orig.size(), got.size());
      for (std::size_t k = 0; k < orig.size(); ++k) {
        const auto [c, v] = orig[k];
        EXPECT_NEAR(got[k].second,
                    v * static_cast<double>(g + 1) / static_cast<double>(c + 1),
                    1e-13);
      }
    }
  });
}
