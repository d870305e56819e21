// DistArray checkpoint adapters: local blocks are saved against the global
// row-major linear index space, so any distribution of the same global
// shape — including the post-shrink re-ranked one — can restore them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "odin/dist_array.hpp"
#include "util/checkpoint.hpp"

namespace pyhpc::odin {

/// Saves this rank's block of `a` under (key, version). Local; every rank
/// saves its own block, any distribution can restore.
template <class T>
inline void snapshot_dist_array(util::CheckpointStore& store,
                                const std::string& key, std::uint64_t version,
                                const DistArray<T>& a) {
  const auto view = a.local_view();
  std::vector<double> run;
  a.for_each_global_run([&](index_t g, index_t lo, index_t len) {
    run.assign(view.begin() + lo, view.begin() + lo + len);
    store.save(key, version, g, run.data(), run.size());
  });
}

/// Fills this rank's block of `a` from (key, version). Local. Throws
/// CheckpointError when the block is not fully covered.
template <class T>
inline void restore_dist_array(const util::CheckpointStore& store,
                               const std::string& key, std::uint64_t version,
                               DistArray<T>& a) {
  auto view = a.local_view();
  a.for_each_global_run([&](index_t g, index_t lo, index_t len) {
    const auto vals = store.restore(key, version, g, g + len);
    for (index_t k = 0; k < len; ++k) {
      view[static_cast<std::size_t>(lo + k)] =
          static_cast<T>(vals[static_cast<std::size_t>(k)]);
    }
  });
}

}  // namespace pyhpc::odin
