#include "epetraext/epetraext.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/string_util.hpp"

namespace pyhpc::epetraext {

namespace {
using GO = std::int64_t;
using LO = std::int32_t;

struct Triple {
  GO row;
  GO col;
  double val;
};
}  // namespace

Matrix transpose(const Matrix& a) {
  require<MapError>(a.is_fill_complete(), "transpose: matrix not fill-complete");
  const Map& map = a.row_map();
  auto& comm = map.comm();
  const int p = comm.size();

  // Route each entry (i, j, v) to the owner of row j. Owners of the column
  // indices are resolved through the map (local arithmetic for contiguous
  // maps, a collective directory query otherwise).
  std::vector<Triple> mine;
  std::vector<GO> cols;
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    const GO g = map.local_to_global(i);
    for (const auto& [c, v] : a.get_global_row(g)) {
      mine.push_back(Triple{c, g, v});  // already transposed
      cols.push_back(c);
    }
  }
  auto owners = map.remote_index_list(std::span<const GO>(cols));

  std::vector<std::vector<Triple>> outgoing(static_cast<std::size_t>(p));
  for (std::size_t k = 0; k < mine.size(); ++k) {
    const int owner = owners[k].first;
    require<MapError>(owner >= 0, "transpose: column index owned by no rank");
    outgoing[static_cast<std::size_t>(owner)].push_back(mine[k]);
  }
  auto incoming = comm.alltoallv(std::move(outgoing));

  Matrix at(map);
  for (const auto& part : incoming) {
    for (const auto& t : part) {
      at.insert_global_value(t.row, t.col, t.val);
    }
  }
  at.fill_complete();
  return at;
}

void write_matrix_market(const Matrix& a, const std::string& path) {
  std::vector<Triple> mine;
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    const GO g = a.row_map().local_to_global(i);
    for (const auto& [c, v] : a.get_global_row(g)) {
      mine.push_back(Triple{g, c, v});
    }
  }
  auto chunks = a.row_map().comm().allgatherv(std::span<const Triple>(mine));
  if (a.row_map().rank() != 0) return;

  std::ofstream out(path);
  require(out.good(), "write_matrix_market: cannot open ", path);
  std::size_t nnz = 0;
  for (const auto& c : chunks) nnz += c.size();
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.row_map().num_global() << " " << a.row_map().num_global() << " "
      << nnz << "\n";
  out.precision(17);
  for (const auto& chunk : chunks) {
    for (const auto& t : chunk) {
      out << t.row + 1 << " " << t.col + 1 << " " << t.val << "\n";
    }
  }
  require(out.good(), "write_matrix_market: write failed for ", path);
}

Matrix read_matrix_market(comm::Communicator& comm, const std::string& path) {
  std::string content;
  if (comm.rank() == 0) {
    std::ifstream in(path);
    require(in.good(), "read_matrix_market: cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  content = comm.broadcast_string(content, 0);

  std::istringstream in(content);
  std::string line;
  // Header / comments.
  do {
    require(static_cast<bool>(std::getline(in, line)),
            "read_matrix_market: empty file");
  } while (!line.empty() && line[0] == '%');
  std::istringstream header(line);
  GO nrows = 0, ncols = 0;
  std::size_t nnz = 0;
  header >> nrows >> ncols >> nnz;
  require(nrows > 0 && nrows == ncols,
          "read_matrix_market: need a square matrix header");

  auto map = Map::uniform(comm, nrows);
  Matrix a(map);
  for (std::size_t k = 0; k < nnz; ++k) {
    GO r = 0, c = 0;
    double v = 0.0;
    in >> r >> c >> v;
    require(!in.fail(), "read_matrix_market: truncated entry list");
    // Checked on every rank before the ownership test: an out-of-range
    // row is owned by no rank, so only this check can reject it.
    require(r >= 1 && r <= nrows && c >= 1 && c <= ncols,
            "read_matrix_market: entry ", k + 1, " (", r, ", ", c,
            ") lies outside the ", nrows, " x ", ncols, " matrix");
    if (map.is_local_global_index(r - 1)) {
      a.insert_global_value(r - 1, c - 1, v);
    }
  }
  a.fill_complete();
  return a;
}

void write_vector_market(const Vector& v, const std::string& path) {
  auto full = v.gather_global();
  if (v.map().rank() != 0) return;
  std::ofstream out(path);
  require(out.good(), "write_vector_market: cannot open ", path);
  out << "%%MatrixMarket matrix array real general\n";
  out << full.size() << " 1\n";
  out.precision(17);
  for (double x : full) out << x << "\n";
  require(out.good(), "write_vector_market: write failed");
}

Vector read_vector_market(comm::Communicator& comm, const std::string& path) {
  std::string content;
  if (comm.rank() == 0) {
    std::ifstream in(path);
    require(in.good(), "read_vector_market: cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  content = comm.broadcast_string(content, 0);

  std::istringstream in(content);
  std::string line;
  do {
    require(static_cast<bool>(std::getline(in, line)),
            "read_vector_market: empty file");
  } while (!line.empty() && line[0] == '%');
  std::istringstream header(line);
  GO n = 0;
  int one = 0;
  header >> n >> one;
  require(n > 0 && one == 1, "read_vector_market: bad array header");

  auto map = Map::uniform(comm, n);
  Vector v(map);
  for (GO g = 0; g < n; ++g) {
    double x = 0.0;
    in >> x;
    require(!in.fail(), "read_vector_market: truncated entries");
    const LO lid = map.global_to_local(g);
    if (lid != tpetra::kInvalidLocal<LO>) v[lid] = x;
  }
  return v;
}

Matrix scale_rows_columns(const Matrix& a, const Vector& s, const Vector& t) {
  require<MapError>(a.is_fill_complete(),
                    "scale_rows_columns: matrix not fill-complete");
  // Ghost t into the column layout via the matrix's own import plan.
  Vector t_ghost(a.col_map());
  a.import_to_col_layout(t, t_ghost);

  Matrix scaled(a.row_map());
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  auto vals = a.values();
  for (LO i = 0; i < a.num_local_rows(); ++i) {
    const GO g = a.row_map().local_to_global(i);
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const LO c = col_ind[static_cast<std::size_t>(k)];
      scaled.insert_global_value(
          g, a.col_map().local_to_global(c),
          s[i] * vals[static_cast<std::size_t>(k)] * t_ghost[c]);
    }
  }
  scaled.fill_complete();
  return scaled;
}

}  // namespace pyhpc::epetraext
