// Distributed tabular data and map-reduce (§III.I: "ODIN supports
// distributed structured or tabular data sets, building on the powerful
// dtype features of NumPy. In combination with ODIN's distributed function
// interface, distributed structured arrays provide the fundamental
// components for parallel Map-Reduce style computations").
//
// DistTable<Record> holds a 1D block-distributed sequence of
// trivially-copyable records; map_reduce shuffles (key, value) pairs to
// their reducer rank (hash partitioning via alltoallv) and folds per key.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <type_traits>
#include <vector>

#include "comm/communicator.hpp"
#include "util/error.hpp"

namespace pyhpc::odin {

template <class Record>
class DistTable {
  static_assert(std::is_trivially_copyable_v<Record>,
                "DistTable records must be trivially copyable (dtype-like)");

 public:
  /// Builds a table from this rank's local rows.
  DistTable(comm::Communicator& comm, std::vector<Record> local_rows)
      : comm_(&comm), rows_(std::move(local_rows)) {}

  comm::Communicator& comm() const { return *comm_; }
  const std::vector<Record>& local_rows() const { return rows_; }
  std::vector<Record>& local_rows() { return rows_; }

  /// Global row count (collective).
  std::int64_t global_size() const {
    return comm_->allreduce_value<std::int64_t>(
        static_cast<std::int64_t>(rows_.size()), std::plus<std::int64_t>{});
  }

  /// Local filter; no communication.
  template <class Pred>
  DistTable filter(Pred&& pred) const {
    std::vector<Record> kept;
    for (const auto& r : rows_) {
      if (pred(r)) kept.push_back(r);
    }
    return DistTable(*comm_, std::move(kept));
  }

  /// Local per-row transform into another record type.
  template <class Out, class F>
  DistTable<Out> map(F&& f) const {
    std::vector<Out> out;
    out.reserve(rows_.size());
    for (const auto& r : rows_) out.push_back(f(r));
    return DistTable<Out>(*comm_, std::move(out));
  }

  /// Rebalances rows into near-equal chunks by global position
  /// (collective).
  DistTable rebalance() const {
    const int p = comm_->size();
    const auto counts =
        comm_->allgather_value<std::int64_t>(static_cast<std::int64_t>(rows_.size()));
    std::int64_t before = 0;
    for (int q = 0; q < comm_->rank(); ++q) {
      before += counts[static_cast<std::size_t>(q)];
    }
    std::int64_t total = before;
    for (int q = comm_->rank(); q < p; ++q) {
      total += counts[static_cast<std::size_t>(q)];
    }
    const std::int64_t chunk = total / p;
    const std::int64_t rem = total % p;
    auto owner_of = [&](std::int64_t gpos) {
      const std::int64_t boundary = (chunk + 1) * rem;
      if (gpos < boundary) return static_cast<int>(gpos / (chunk + 1));
      if (chunk == 0) return p - 1;
      return static_cast<int>(rem + (gpos - boundary) / chunk);
    };
    std::vector<std::vector<Record>> outgoing(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      outgoing[static_cast<std::size_t>(owner_of(
                   before + static_cast<std::int64_t>(i)))]
          .push_back(rows_[i]);
    }
    auto incoming = comm_->alltoallv(std::move(outgoing));
    std::vector<Record> mine;
    for (auto& part : incoming) {
      mine.insert(mine.end(), part.begin(), part.end());
    }
    return DistTable(*comm_, std::move(mine));
  }

 private:
  comm::Communicator* comm_;
  std::vector<Record> rows_;
};

/// Map-reduce over a distributed table. `mapper(row)` emits one (Key,
/// Value) pair per row (Key and Value trivially copyable); pairs are
/// shuffled to reducer ranks by hash(Key) % P; `reducer(acc, value)` folds
/// values per key. Every rank returns its owned (key, aggregate) pairs,
/// sorted by key. Collective.
template <class Key, class Value, class Record, class Mapper, class Reducer>
std::vector<std::pair<Key, Value>> map_reduce(const DistTable<Record>& table,
                                              Mapper&& mapper,
                                              Reducer&& reducer,
                                              Value init = Value{}) {
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);
  auto& comm = table.comm();
  const int p = comm.size();

  struct KV {
    Key key;
    Value value;
  };

  // Map + local combine (the classic combiner optimization: pre-fold pairs
  // sharing a key before the shuffle).
  std::map<Key, Value> combined;
  for (const auto& row : table.local_rows()) {
    const auto [key, value] = mapper(row);
    auto [it, inserted] = combined.emplace(key, init);
    it->second = reducer(it->second, value);
  }

  std::hash<Key> hasher;
  std::vector<std::vector<KV>> outgoing(static_cast<std::size_t>(p));
  for (const auto& [key, value] : combined) {
    const int dest = static_cast<int>(hasher(key) % static_cast<std::size_t>(p));
    outgoing[static_cast<std::size_t>(dest)].push_back(KV{key, value});
  }
  auto incoming = comm.alltoallv(std::move(outgoing));

  std::map<Key, Value> folded;
  for (const auto& part : incoming) {
    for (const auto& kv : part) {
      auto [it, inserted] = folded.emplace(kv.key, init);
      it->second = reducer(it->second, kv.value);
    }
  }
  std::vector<std::pair<Key, Value>> out(folded.begin(), folded.end());
  return out;
}

}  // namespace pyhpc::odin
