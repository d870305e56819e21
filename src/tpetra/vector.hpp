// Vector: a distributed dense vector over a Map (Tpetra::Vector analogue),
// templated on Scalar/LocalOrdinal/GlobalOrdinal per the paper's §II.C.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "tpetra/import_export.hpp"
#include "tpetra/map.hpp"
#include "util/random.hpp"

namespace pyhpc::tpetra {

template <class Scalar = double, class LO = std::int32_t,
          class GO = std::int64_t>
class Vector {
 public:
  using scalar_type = Scalar;
  using map_type = Map<LO, GO>;

  explicit Vector(const map_type& map)
      : map_(map), data_(static_cast<std::size_t>(map.num_local()), Scalar{}) {}

  Vector(const map_type& map, Scalar fill)
      : map_(map), data_(static_cast<std::size_t>(map.num_local()), fill) {}

  const map_type& map() const { return map_; }
  LO local_size() const { return static_cast<LO>(data_.size()); }
  GO global_size() const { return map_.num_global(); }

  std::span<Scalar> local_view() { return data_; }
  std::span<const Scalar> local_view() const { return data_; }

  Scalar& operator[](LO lid) { return data_[static_cast<std::size_t>(lid)]; }
  const Scalar& operator[](LO lid) const {
    return data_[static_cast<std::size_t>(lid)];
  }

  /// Writes through a global index; the index must be locally owned.
  void replace_global_value(GO gid, Scalar value) {
    const LO lid = map_.global_to_local(gid);
    require<MapError>(lid != kInvalidLocal<LO>,
                      "replace_global_value: gid ", gid,
                      " not owned by rank ", map_.rank());
    data_[static_cast<std::size_t>(lid)] = value;
  }

  void sum_into_global_value(GO gid, Scalar value) {
    const LO lid = map_.global_to_local(gid);
    require<MapError>(lid != kInvalidLocal<LO>,
                      "sum_into_global_value: gid not owned");
    data_[static_cast<std::size_t>(lid)] += value;
  }

  void put_scalar(Scalar value) {
    for (auto& x : data_) x = value;
  }

  /// Deterministic uniform [0,1) fill; the stream depends on (seed, rank)
  /// so results are reproducible for a fixed rank count.
  void randomize(std::uint64_t seed = 0) {
    util::Xoshiro256 rng(seed, static_cast<std::uint64_t>(map_.rank()));
    for (auto& x : data_) x = static_cast<Scalar>(rng.next_double());
  }

  /// y := alpha * x + beta * y  (this is y). Maps must be compatible.
  void update(Scalar alpha, const Vector& x, Scalar beta) {
    check_same_layout(x, "update");
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = alpha * x.data_[i] + beta * data_[i];
    }
  }

  void scale(Scalar alpha) {
    for (auto& x : data_) x *= alpha;
  }

  /// this := x element-wise-times y (Tpetra elementWiseMultiply).
  void elementwise_multiply(const Vector& x, const Vector& y) {
    check_same_layout(x, "elementwise_multiply");
    check_same_layout(y, "elementwise_multiply");
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = x.data_[i] * y.data_[i];
    }
  }

  void reciprocal(const Vector& x) {
    check_same_layout(x, "reciprocal");
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = Scalar{1} / x.data_[i];
    }
  }

  void abs(const Vector& x) {
    check_same_layout(x, "abs");
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = std::abs(x.data_[i]);
    }
  }

  /// Global dot product (collective).
  Scalar dot(const Vector& other) const {
    check_same_layout(other, "dot");
    Scalar local{};
    for (std::size_t i = 0; i < data_.size(); ++i) {
      local += data_[i] * other.data_[i];
    }
    return map_.comm().allreduce_value(local, std::plus<Scalar>{});
  }

  /// Global 2-norm (collective).
  double norm2() const {
    double local = 0.0;
    for (const auto& x : data_) {
      local += static_cast<double>(x) * static_cast<double>(x);
    }
    return std::sqrt(
        map_.comm().allreduce_value(local, std::plus<double>{}));
  }

  /// Global 1-norm (collective).
  double norm1() const {
    double local = 0.0;
    for (const auto& x : data_) local += std::abs(static_cast<double>(x));
    return map_.comm().allreduce_value(local, std::plus<double>{});
  }

  /// Global max-norm (collective).
  double norm_inf() const {
    double local = 0.0;
    for (const auto& x : data_) {
      local = std::max(local, std::abs(static_cast<double>(x)));
    }
    return map_.comm().allreduce_value(
        local, [](double a, double b) { return std::max(a, b); });
  }

  /// Global minimum / maximum / mean (collective).
  Scalar min_value() const {
    Scalar local = data_.empty() ? std::numeric_limits<Scalar>::max()
                                 : data_.front();
    for (const auto& x : data_) local = std::min(local, x);
    return map_.comm().allreduce_value(
        local, [](Scalar a, Scalar b) { return std::min(a, b); });
  }

  Scalar max_value() const {
    Scalar local = data_.empty() ? std::numeric_limits<Scalar>::lowest()
                                 : data_.front();
    for (const auto& x : data_) local = std::max(local, x);
    return map_.comm().allreduce_value(
        local, [](Scalar a, Scalar b) { return std::max(a, b); });
  }

  Scalar mean_value() const {
    Scalar local{};
    for (const auto& x : data_) local += x;
    const Scalar total = map_.comm().allreduce_value(local, std::plus<Scalar>{});
    return total / static_cast<Scalar>(map_.num_global());
  }

  /// Ghost fill: this := import of `src` under `plan` (collective).
  void do_import(const Vector& src, const Import<LO, GO>& plan,
                 CombineMode mode = CombineMode::kInsert) {
    plan.template apply<Scalar>(src.local_view(), local_view(), mode);
  }

  /// Assembly: contributions in `src` (overlapping map) combine into this
  /// (one-to-one map) at the owners (collective).
  void do_export(const Vector& src, const Export<LO, GO>& plan,
                 CombineMode mode = CombineMode::kAdd) {
    plan.template apply<Scalar>(src.local_view(), local_view(), mode);
  }

  /// Gathers the whole vector to every rank in global-index order
  /// (collective; intended for tests and small problems).
  std::vector<Scalar> gather_global() const {
    struct Entry {
      GO gid;
      Scalar value;
    };
    std::vector<Entry> mine;
    mine.reserve(data_.size());
    for (LO i = 0; i < static_cast<LO>(data_.size()); ++i) {
      mine.push_back(Entry{map_.local_to_global(i), data_[static_cast<std::size_t>(i)]});
    }
    auto chunks = map_.comm().allgatherv(std::span<const Entry>(mine));
    std::vector<Scalar> out(static_cast<std::size_t>(map_.num_global()),
                            Scalar{});
    for (const auto& chunk : chunks) {
      for (const auto& e : chunk) {
        out[static_cast<std::size_t>(e.gid)] = e.value;
      }
    }
    return out;
  }

 private:
  void check_same_layout(const Vector& other, const char* op) const {
    require<MapError>(other.data_.size() == data_.size(),
                      "Vector::", op, ": local size mismatch (",
                      data_.size(), " vs ", other.data_.size(), ")");
  }

  map_type map_;
  std::vector<Scalar> data_;
};

/// MultiVector: k column vectors sharing one map (Tpetra::MultiVector
/// analogue; the storage is column-major — one contiguous block per column).
template <class Scalar = double, class LO = std::int32_t,
          class GO = std::int64_t>
class MultiVector {
 public:
  using vector_type = Vector<Scalar, LO, GO>;
  using map_type = Map<LO, GO>;

  MultiVector(const map_type& map, int num_vectors)
      : map_(map) {
    require(num_vectors >= 1, "MultiVector: need at least one column");
    cols_.reserve(static_cast<std::size_t>(num_vectors));
    for (int j = 0; j < num_vectors; ++j) cols_.emplace_back(map);
  }

  const map_type& map() const { return map_; }
  int num_vectors() const { return static_cast<int>(cols_.size()); }

  vector_type& col(int j) { return cols_.at(static_cast<std::size_t>(j)); }
  const vector_type& col(int j) const {
    return cols_.at(static_cast<std::size_t>(j));
  }

  void put_scalar(Scalar value) {
    for (auto& c : cols_) c.put_scalar(value);
  }

  void randomize(std::uint64_t seed = 0) {
    std::uint64_t s = seed;
    for (auto& c : cols_) c.randomize(s++);
  }

  /// Column-wise dots against another multivector (collective).
  std::vector<Scalar> dot(const MultiVector& other) const {
    require(other.num_vectors() == num_vectors(),
            "MultiVector::dot: column count mismatch");
    std::vector<Scalar> out;
    out.reserve(cols_.size());
    for (int j = 0; j < num_vectors(); ++j) out.push_back(col(j).dot(other.col(j)));
    return out;
  }

  std::vector<double> norms2() const {
    std::vector<double> out;
    out.reserve(cols_.size());
    for (const auto& c : cols_) out.push_back(c.norm2());
    return out;
  }

 private:
  map_type map_;
  std::vector<vector_type> cols_;
};

}  // namespace pyhpc::tpetra
