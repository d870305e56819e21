// Map: the distribution of global indices over the ranks of a communicator —
// the foundation of every distributed object (Tpetra::Map analogue).
//
// Templated on LocalOrdinal/GlobalOrdinal exactly as the paper's §II.C
// describes for second-generation Trilinos: "The LocalOrdinal and
// GlobalOrdinal types support indexing using long integers (or any integer
// type)". Defaults give 32-bit local and 64-bit global indices.
//
// A Map may be:
//  - contiguous uniform  (global indices [0,N) in near-equal blocks),
//  - contiguous by size  (caller chooses each rank's local count),
//  - arbitrary           (explicit global-index lists; may overlap ranks,
//                         as column maps do).
//
// SPMD discipline: Map constructors and remote_index_list() are collective —
// every rank of the communicator must call them in the same program order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "comm/communicator.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::tpetra {

/// Sentinel returned by global_to_local for non-local indices.
template <class LO>
inline constexpr LO kInvalidLocal = static_cast<LO>(-1);

template <class LO = std::int32_t, class GO = std::int64_t>
class Map {
 public:
  using local_ordinal = LO;
  using global_ordinal = GO;

  /// Contiguous near-uniform block distribution of [0, num_global).
  /// Rank r receives floor(N/P) indices plus one extra when r < N mod P.
  static Map uniform(comm::Communicator& comm, GO num_global) {
    require(num_global >= 0, "Map::uniform: negative global count");
    auto index = std::make_shared<Index>();
    index->offsets = uniform_offsets(num_global, comm.size());
    return Map(comm, std::move(index), num_global);
  }

  /// Contiguous distribution with caller-specified local count (collective:
  /// performs a scan + allreduce to establish offsets).
  static Map from_local_sizes(comm::Communicator& comm, LO num_local) {
    require(num_local >= 0, "Map::from_local_sizes: negative local count");
    auto counts = comm.allgather_value(static_cast<GO>(num_local));
    auto index = std::make_shared<Index>();
    auto& off = index->offsets;
    off.assign(static_cast<std::size_t>(comm.size()) + 1, 0);
    for (int r = 0; r < comm.size(); ++r) {
      off[static_cast<std::size_t>(r) + 1] =
          off[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];
    }
    const GO num_global = off.back();
    return Map(comm, std::move(index), num_global);
  }

  /// Arbitrary distribution from this rank's global-index list. Indices may
  /// overlap between ranks (overlapping maps are how ghost/column layouts
  /// are expressed); duplicate indices on one rank are rejected.
  /// Collective: establishes the global count.
  static Map from_global_indices(comm::Communicator& comm,
                                 std::span<const GO> my_gids) {
    auto index = std::make_shared<Index>();
    index->gids.assign(my_gids.begin(), my_gids.end());
    index->g2l.reserve(index->gids.size());
    GO local_max = -1;
    for (std::size_t i = 0; i < index->gids.size(); ++i) {
      const GO g = index->gids[i];
      require(g >= 0, "Map: negative global index");
      const bool inserted = index->g2l.emplace(g, static_cast<LO>(i)).second;
      require(inserted, "Map: duplicate global index ", g, " on rank ",
              comm.rank());
      local_max = std::max(local_max, g);
    }
    const GO global_max = comm.allreduce_value(
        local_max, [](GO a, GO b) { return std::max(a, b); });
    return Map(comm, std::move(index), global_max + 1);
  }

  /// The communicator handle is shared and internally sequenced; collective
  /// calls mutate only that sequencing, so a const Map still exposes a
  /// usable communicator.
  comm::Communicator& comm() const { return *comm_; }

  GO num_global() const { return num_global_; }

  LO num_local() const { return num_local_; }

  int rank() const { return comm_->rank(); }
  int num_ranks() const { return comm_->size(); }

  bool is_contiguous() const { return contiguous_; }

  /// First global index owned locally (contiguous maps only).
  GO min_global_index() const {
    require<MapError>(contiguous_, "min_global_index: map not contiguous");
    return first_;
  }

  /// One past the last locally owned global index (contiguous maps only).
  GO max_global_index_plus_one() const {
    require<MapError>(contiguous_, "max_global_index_plus_one: map not contiguous");
    return first_ + num_local_;
  }

  bool is_local_global_index(GO gid) const {
    if (contiguous_) return gid >= first_ && gid - first_ < num_local_;
    return index_->g2l.count(gid) > 0;
  }

  /// Local id for a global index, or kInvalidLocal<LO> when not local.
  LO global_to_local(GO gid) const {
    if (contiguous_) {
      if (gid < first_ || gid - first_ >= num_local_) return kInvalidLocal<LO>;
      return static_cast<LO>(gid - first_);
    }
    auto it = index_->g2l.find(gid);
    return it == index_->g2l.end() ? kInvalidLocal<LO> : it->second;
  }

  GO local_to_global(LO lid) const {
    require<MapError>(lid >= 0 && lid < num_local(),
                      "local_to_global: lid ", lid,
                      " out of range [0, ", num_local(), ")");
    if (contiguous_) return first_ + lid;
    return index_->gids[static_cast<std::size_t>(lid)];
  }

  /// This rank's global indices (materialized for contiguous maps).
  std::vector<GO> my_global_indices() const {
    if (!contiguous_) return index_->gids;
    std::vector<GO> out(static_cast<std::size_t>(num_local_));
    std::iota(out.begin(), out.end(), first_);
    return out;
  }

  /// Owning rank of a global index under a *contiguous* map — O(log P)
  /// local lookup. Arbitrary maps need remote_index_list().
  int owner_of(GO gid) const {
    require<MapError>(contiguous_, "owner_of: map not contiguous");
    require<MapError>(gid >= 0 && gid < num_global_,
                      "owner_of: gid ", gid, " out of range");
    const auto& off = index_->offsets;
    const auto it = std::upper_bound(off.begin(), off.end(), gid);
    return static_cast<int>(it - off.begin()) - 1;
  }

  /// Resolves owning rank and remote local id for each queried global
  /// index. Local-only for contiguous maps; COLLECTIVE for arbitrary maps
  /// (uses a distributed directory — every rank must call, queries may be
  /// empty). Unowned indices resolve to rank -1.
  std::vector<std::pair<int, LO>> remote_index_list(
      std::span<const GO> gids) const;

  /// Same distribution: identical global count and identical local indices
  /// on every rank (cheap local test followed by a collective AND).
  bool is_same_as(const Map& other) const {
    bool local_same = locally_same(other);
    const int all = comm_->allreduce_value<int>(
        local_same ? 1 : 0, [](int a, int b) { return a & b; });
    return all == 1;
  }

  /// Compatible: same global count and same local count per rank (element
  /// wise operations are well-defined even if the indices differ).
  bool is_compatible(const Map& other) const {
    bool ok = num_global_ == other.num_global_ &&
              num_local() == other.num_local();
    const int all = comm_->allreduce_value<int>(
        ok ? 1 : 0, [](int a, int b) { return a & b; });
    return all == 1;
  }

  bool locally_same(const Map& other) const {
    if (num_global_ != other.num_global_) return false;
    if (contiguous_ && other.contiguous_) {
      return index_->offsets == other.index_->offsets;
    }
    if (num_local() != other.num_local()) return false;
    const LO n = num_local();
    for (LO i = 0; i < n; ++i) {
      if (local_to_global(i) != other.local_to_global(i)) return false;
    }
    return true;
  }

  std::string describe() const {
    return util::cat("Map{N=", num_global_, ", P=", num_ranks(),
                     contiguous_ ? ", contiguous" : ", arbitrary",
                     ", local=", num_local(), "}");
  }

 private:
  // Index data every copy of a Map shares. A factory builds it once and
  // nothing mutates it afterwards, so copying a Map — every Vector, Import
  // and CrsMatrix holds one by value — costs reference-count increments,
  // never a copy of the gid list or the hash table.
  struct Index {
    // Contiguous representation: per-rank offsets (P+1 entries, all
    // ranks); empty exactly for arbitrary maps.
    std::vector<GO> offsets;
    // Arbitrary representation: local global-index list + reverse lookup.
    std::vector<GO> gids;
    std::unordered_map<GO, LO> g2l;
  };

  Map(const comm::Communicator& comm, std::shared_ptr<const Index> index,
      GO num_global)
      : comm_(std::make_shared<comm::Communicator>(comm)),
        index_(std::move(index)),
        num_global_(num_global),
        contiguous_(!index_->offsets.empty()) {
    if (contiguous_) {
      const auto r = static_cast<std::size_t>(comm.rank());
      first_ = index_->offsets[r];
      num_local_ = static_cast<LO>(index_->offsets[r + 1] - first_);
    } else {
      num_local_ = static_cast<LO>(index_->gids.size());
    }
  }

  static std::vector<GO> uniform_offsets(GO n, int p) {
    std::vector<GO> off(static_cast<std::size_t>(p) + 1, 0);
    const GO chunk = n / p;
    const GO rem = n % p;
    for (int r = 0; r < p; ++r) {
      off[static_cast<std::size_t>(r) + 1] =
          off[static_cast<std::size_t>(r)] + chunk + (r < rem ? 1 : 0);
    }
    return off;
  }

  // Shared so copies of the Map stay cheap; the Communicator itself is a
  // light handle but carries collective sequencing that must advance
  // identically on all ranks (SPMD discipline).
  std::shared_ptr<comm::Communicator> comm_;
  std::shared_ptr<const Index> index_;
  GO num_global_ = 0;
  bool contiguous_ = true;
  GO first_ = 0;  // contiguous maps: first locally owned global index
  LO num_local_ = 0;
};

// ---------------------------------------------------------------------------
// remote_index_list: a distributed directory query. Directory rank of gid g
// is its owner under the uniform contiguous partition of [0, num_global).
// Round 1: every rank registers (gid, lid) for its owned indices with the
// directory. Round 2: queries are routed to directory ranks and answered.
// For contiguous maps everything is computable locally with no traffic.
// ---------------------------------------------------------------------------
template <class LO, class GO>
std::vector<std::pair<int, LO>> Map<LO, GO>::remote_index_list(
    std::span<const GO> gids) const {
  std::vector<std::pair<int, LO>> out(gids.size(), {-1, kInvalidLocal<LO>});
  if (contiguous_) {
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const GO g = gids[i];
      if (g < 0 || g >= num_global_) continue;
      const int owner = owner_of(g);
      out[i] = {owner, static_cast<LO>(
                           g - index_->offsets[static_cast<std::size_t>(owner)])};
    }
    return out;
  }

  auto& c = *comm_;
  const int p = c.size();
  const GO n = std::max<GO>(num_global_, 1);
  auto dir_rank_of = [&](GO g) {
    // Uniform partition of [0, n) over p directory ranks.
    const GO chunk = n / p;
    const GO rem = n % p;
    const GO boundary = (chunk + 1) * rem;  // first index of the small blocks
    if (g < boundary) return static_cast<int>(g / (chunk + 1));
    if (chunk == 0) return p - 1;
    return static_cast<int>(rem + (g - boundary) / chunk);
  };

  struct DirEntry {
    GO gid;
    LO lid;
    int owner;
  };

  // Round 1: register owned indices with the directory.
  std::vector<std::vector<DirEntry>> reg(static_cast<std::size_t>(p));
  const auto& my_gids = index_->gids;
  for (std::size_t i = 0; i < my_gids.size(); ++i) {
    const GO g = my_gids[i];
    reg[static_cast<std::size_t>(dir_rank_of(g))].push_back(
        DirEntry{g, static_cast<LO>(i), c.rank()});
  }
  auto arrived = c.alltoallv(std::move(reg));
  // Directory table for my slice. Overlapping maps register a gid from
  // several ranks; the lowest registering rank wins (deterministic).
  std::unordered_map<GO, std::pair<int, LO>> table;
  for (const auto& part : arrived) {
    for (const auto& e : part) {
      auto it = table.find(e.gid);
      if (it == table.end() || e.owner < it->second.first) {
        table[e.gid] = {e.owner, e.lid};
      }
    }
  }

  // Round 2: route queries to directory ranks.
  struct Query {
    GO gid;
    std::int64_t slot;  // position in the caller's gids array
  };
  std::vector<std::vector<Query>> queries(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < gids.size(); ++i) {
    if (gids[i] < 0 || gids[i] >= num_global_) continue;
    queries[static_cast<std::size_t>(dir_rank_of(gids[i]))].push_back(
        Query{gids[i], static_cast<std::int64_t>(i)});
  }
  auto incoming = c.alltoallv(std::move(queries));

  struct Answer {
    std::int64_t slot;
    int owner;
    LO lid;
  };
  std::vector<std::vector<Answer>> answers(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    for (const auto& q : incoming[static_cast<std::size_t>(src)]) {
      auto it = table.find(q.gid);
      Answer a{q.slot, -1, kInvalidLocal<LO>};
      if (it != table.end()) {
        a.owner = it->second.first;
        a.lid = it->second.second;
      }
      answers[static_cast<std::size_t>(src)].push_back(a);
    }
  }
  auto replies = c.alltoallv(std::move(answers));
  for (const auto& part : replies) {
    for (const auto& a : part) {
      out[static_cast<std::size_t>(a.slot)] = {a.owner, a.lid};
    }
  }
  return out;
}

}  // namespace pyhpc::tpetra
