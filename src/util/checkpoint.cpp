#include "util/checkpoint.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace pyhpc::util {

void CheckpointStore::save(const std::string& key, std::uint64_t version,
                           std::int64_t global_offset, const double* data,
                           std::size_t n) {
  require(global_offset >= 0, "CheckpointStore::save: negative offset");
  std::lock_guard<std::mutex> lock(mu_);
  blocks_[{key, version}][global_offset].assign(data, data + n);
}

std::vector<double> CheckpointStore::restore(const std::string& key,
                                             std::uint64_t version,
                                             std::int64_t lo,
                                             std::int64_t hi) const {
  require(lo >= 0 && hi >= lo, "CheckpointStore::restore: bad range");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find({key, version});
  require<CheckpointError>(it != blocks_.end(),
                           "checkpoint restore: no blocks for '",
                           key, "' version ", version);
  std::vector<double> out(static_cast<std::size_t>(hi - lo), 0.0);
  // Coverage walk over the offset-sorted blocks: `covered` is the first
  // index of [lo, hi) not yet filled; any block starting past it while it
  // is still inside the range means a hole (an unfinished version).
  std::int64_t covered = lo;
  for (const auto& [off, vals] : it->second) {
    const std::int64_t end = off + static_cast<std::int64_t>(vals.size());
    if (end <= lo) continue;
    if (off >= hi) break;
    require<CheckpointError>(
        off <= covered,
        "checkpoint restore: '", key, "' version ", version,
        " has a hole at [", covered, ", ", off, ")");
    const std::int64_t from = std::max(off, lo);
    const std::int64_t to = std::min(end, hi);
    std::copy(vals.begin() + (from - off), vals.begin() + (to - off),
              out.begin() + (from - lo));
    covered = std::max(covered, to);
  }
  require<CheckpointError>(
      covered >= hi,
      "checkpoint restore: '", key, "' version ", version,
      " covers only up to ", covered, " of requested [", lo, ", ",
      hi, ")");
  return out;
}

bool CheckpointStore::covers(const std::string& key, std::uint64_t version,
                             std::int64_t lo, std::int64_t hi) const {
  if (lo >= hi) return true;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find({key, version});
  if (it == blocks_.end()) return false;
  std::int64_t covered = lo;
  for (const auto& [off, vals] : it->second) {
    const std::int64_t end = off + static_cast<std::int64_t>(vals.size());
    if (end <= lo) continue;
    if (off >= hi) break;
    if (off > covered) return false;
    covered = std::max(covered, end);
  }
  return covered >= hi;
}

std::vector<std::uint64_t> CheckpointStore::versions(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  for (const auto& [bk, blocks] : blocks_) {
    if (bk.first == key) out.push_back(bk.second);
  }
  return out;  // map iteration order is already ascending in version
}

void CheckpointStore::save_scalar(const std::string& key,
                                  std::uint64_t version, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  scalars_[{key, version}] = v;
}

bool CheckpointStore::has_scalar(const std::string& key,
                                 std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return scalars_.count({key, version}) > 0;
}

double CheckpointStore::restore_scalar(const std::string& key,
                                       std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scalars_.find({key, version});
  require<CheckpointError>(it != scalars_.end(),
                           "checkpoint restore: no scalar '", key,
                           "' version ", version);
  return it->second;
}

void CheckpointStore::save_blob(const std::string& key, int part, int nparts,
                                std::vector<double> data) {
  require(nparts >= 1 && part >= 0 && part < nparts,
          "CheckpointStore::save_blob: part out of range");
  std::lock_guard<std::mutex> lock(mu_);
  Blob& blob = blobs_[key];
  if (blob.nparts < 0) blob.nparts = nparts;
  require(blob.nparts == nparts,
          "CheckpointStore::save_blob: '", key,
          "' declared with conflicting part counts (", blob.nparts,
          " vs ", nparts, ")");
  blob.parts.emplace(part, std::move(data));  // first write wins
}

bool CheckpointStore::blob_complete(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(key);
  return it != blobs_.end() &&
         static_cast<int>(it->second.parts.size()) == it->second.nparts;
}

std::vector<double> CheckpointStore::restore_blob(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(key);
  require<CheckpointError>(
      it != blobs_.end() &&
          static_cast<int>(it->second.parts.size()) == it->second.nparts,
      "checkpoint restore: blob '", key, "' absent or incomplete");
  std::vector<double> out;
  for (const auto& [part, vals] : it->second.parts) {
    out.insert(out.end(), vals.begin(), vals.end());
  }
  return out;
}

std::uint64_t CheckpointStore::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t doubles = scalars_.size();
  for (const auto& [bk, blocks] : blocks_) {
    for (const auto& [off, vals] : blocks) doubles += vals.size();
  }
  for (const auto& [key, blob] : blobs_) {
    for (const auto& [part, vals] : blob.parts) doubles += vals.size();
  }
  return doubles * sizeof(double);
}

void CheckpointStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.clear();
  scalars_.clear();
  blobs_.clear();
}

}  // namespace pyhpc::util
