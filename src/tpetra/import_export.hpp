// Import/Export: reusable communication plans between two Maps
// (Tpetra::Import / Tpetra::Export analogues).
//
// Import moves data from a (one-to-one) source map to a possibly
// overlapping target map — the ghost-fill direction used by SpMV and halo
// exchange. Export moves data from an overlapping source map into a
// one-to-one target map, combining contributions — the assembly direction
// used by finite-element scatter-add.
//
// Plans are built once (collective) and applied many times. The forward
// application is split-phase (begin_apply/ImportHandle::finish): sends move
// their packs zero-copy, the caller computes on anything that does not need
// the remote values, and finish() receives them — the structure SpMV's
// interior/boundary overlap is built on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/message.hpp"
#include "tpetra/map.hpp"

namespace pyhpc::tpetra {

/// How incoming values combine with existing target entries.
enum class CombineMode {
  kInsert,  // overwrite
  kAdd,     // accumulate
};

/// In-flight forward Import application: sends are gone (moved into
/// envelopes), permutes are done. finish() receives the remote values and
/// scatters them into the target vector. Must be finished before the next
/// communication on the same communicator pair to keep FIFO tag matching
/// aligned.
template <class Scalar, class LO>
class ImportHandle {
 public:
  ImportHandle(ImportHandle&&) = default;
  ImportHandle(const ImportHandle&) = delete;
  ImportHandle& operator=(const ImportHandle&) = delete;

  /// Receives each sending neighbour's pack in rank order (a blocking
  /// receive per neighbour) and scatters the values to their target slots.
  /// May be called once.
  void finish() {
    for (std::size_t r = 0; r < recv_lids_->size(); ++r) {
      const auto& lids = (*recv_lids_)[r];
      if (lids.empty()) continue;
      std::vector<Scalar> vals = comm_->recv_vector_internal<Scalar>(
          static_cast<int>(r), comm::kImportTag);
      require<CommError>(lids.size() == vals.size(),
                         "Import::finish: plan/payload size mismatch");
      for (std::size_t k = 0; k < lids.size(); ++k) {
        auto& slot = target_[static_cast<std::size_t>(lids[k])];
        slot = (mode_ == CombineMode::kAdd) ? slot + vals[k] : vals[k];
      }
    }
  }

 private:
  template <class L, class G>
  friend class Import;
  ImportHandle(comm::Communicator& comm,
               const std::vector<std::vector<LO>>& recv_lids,
               std::span<Scalar> target, CombineMode mode)
      : comm_(&comm), recv_lids_(&recv_lids), target_(target), mode_(mode) {}

  comm::Communicator* comm_;
  const std::vector<std::vector<LO>>* recv_lids_;  // the plan's, per source
  std::span<Scalar> target_;
  CombineMode mode_;
};

template <class LO = std::int32_t, class GO = std::int64_t>
class Import {
 public:
  /// Collective. `source` should be one-to-one (each global index owned by
  /// exactly one rank); `target` may overlap ranks arbitrarily.
  Import(const Map<LO, GO>& source, const Map<LO, GO>& target)
      : source_(source), target_(target) {
    std::vector<GO> remote_gids;
    std::vector<LO> remote_tlids;
    const LO tn = target.num_local();
    for (LO t = 0; t < tn; ++t) {
      const GO gid = target.local_to_global(t);
      const LO slid = source.global_to_local(gid);
      if (slid != kInvalidLocal<LO>) {
        permute_src_.push_back(slid);
        permute_dst_.push_back(t);
      } else {
        remote_gids.push_back(gid);
        remote_tlids.push_back(t);
      }
    }

    // Resolve owners of the remote indices (collective on the source map).
    auto owners = source.remote_index_list(std::span<const GO>(remote_gids));

    const int p = source.comm().size();
    // Group my requests by owner; remember where each received value lands.
    struct Request {
      GO gid;
      LO source_lid;
    };
    std::vector<std::vector<Request>> requests(static_cast<std::size_t>(p));
    recv_lids_.assign(static_cast<std::size_t>(p), {});
    for (std::size_t i = 0; i < remote_gids.size(); ++i) {
      const auto [owner, slid] = owners[i];
      require<MapError>(owner >= 0,
                        "Import: global index ", remote_gids[i],
                        " is owned by no rank of the source map");
      requests[static_cast<std::size_t>(owner)].push_back(
          Request{remote_gids[i], slid});
      recv_lids_[static_cast<std::size_t>(owner)].push_back(remote_tlids[i]);
    }

    // Tell each owner which of its local ids we need (collective). The
    // request packs are dead after this, so move them into the envelopes.
    auto incoming = source.comm().alltoallv(std::move(requests));
    send_lids_.assign(static_cast<std::size_t>(p), {});
    for (int r = 0; r < p; ++r) {
      for (const auto& req : incoming[static_cast<std::size_t>(r)]) {
        send_lids_[static_cast<std::size_t>(r)].push_back(req.source_lid);
      }
    }
  }

  const Map<LO, GO>& source_map() const { return source_; }
  const Map<LO, GO>& target_map() const { return target_; }

  /// Number of target entries satisfied locally (no communication).
  std::size_t num_permutes() const { return permute_src_.size(); }

  /// Number of values this rank will receive per application.
  std::size_t num_remote() const {
    std::size_t n = 0;
    for (const auto& v : recv_lids_) n += v.size();
    return n;
  }

  /// Number of values this rank will send per application.
  std::size_t num_export() const {
    std::size_t n = 0;
    for (const auto& v : send_lids_) n += v.size();
    return n;
  }

  /// Starts a forward application: moves one pack per receiving neighbour
  /// into its envelope zero-copy, then handles the local permutes. The
  /// remote values are received and scattered by ImportHandle::finish();
  /// between begin and finish the caller is free to compute on anything
  /// that does not need them. Neighbour-only p2p on a reserved tag: ranks
  /// with no overlap exchange nothing (the old all-to-all schedule posted
  /// O(p) messages per rank regardless).
  template <class Scalar>
  ImportHandle<Scalar, LO> begin_apply(
      std::span<const Scalar> source_values, std::span<Scalar> target_values,
      CombineMode mode = CombineMode::kInsert) const {
    require(source_values.size() ==
                static_cast<std::size_t>(source_.num_local()),
            "Import::apply: source size mismatch");
    require(target_values.size() ==
                static_cast<std::size_t>(target_.num_local()),
            "Import::apply: target size mismatch");
    const int p = source_.comm().size();
    auto& comm = source_.comm();

    for (int r = 0; r < p; ++r) {
      const auto& lids = send_lids_[static_cast<std::size_t>(r)];
      if (lids.empty()) continue;
      std::vector<Scalar> pack;
      pack.reserve(lids.size());
      for (LO lid : lids) {
        pack.push_back(source_values[static_cast<std::size_t>(lid)]);
      }
      comm.send_internal(std::move(pack), r, comm::kImportTag);
    }
    for (std::size_t i = 0; i < permute_src_.size(); ++i) {
      auto& slot = target_values[static_cast<std::size_t>(permute_dst_[i])];
      const Scalar v = source_values[static_cast<std::size_t>(permute_src_[i])];
      slot = (mode == CombineMode::kAdd) ? slot + v : v;
    }
    return ImportHandle<Scalar, LO>(comm, recv_lids_, target_values, mode);
  }

  /// Applies the plan: target[plan] = source[plan]. Collective.
  /// `source_values` is indexed by source-map local ids, `target_values`
  /// by target-map local ids.
  template <class Scalar>
  void apply(std::span<const Scalar> source_values,
             std::span<Scalar> target_values,
             CombineMode mode = CombineMode::kInsert) const {
    begin_apply(source_values, target_values, mode).finish();
  }

  /// Runs the plan backwards: values indexed by the *target* (overlapping)
  /// map flow to their owners in the *source* (one-to-one) map. This is the
  /// engine behind Export. Collective.
  template <class Scalar>
  void apply_reverse(std::span<const Scalar> overlapping_values,
                     std::span<Scalar> owned_values, CombineMode mode) const {
    require(overlapping_values.size() ==
                static_cast<std::size_t>(target_.num_local()),
            "Import::apply_reverse: overlapping size mismatch");
    require(owned_values.size() ==
                static_cast<std::size_t>(source_.num_local()),
            "Import::apply_reverse: owned size mismatch");
    const int p = source_.comm().size();

    // Forward, rank A sends source[send_lids_[B]] to B who lands them at
    // recv_lids_[A]; in reverse, each rank ships overlapping[recv_lids_[r]]
    // back to r, who combines into owned[send_lids_[...]].
    std::vector<std::vector<Scalar>> outgoing(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto& lids = recv_lids_[static_cast<std::size_t>(r)];
      auto& pack = outgoing[static_cast<std::size_t>(r)];
      pack.reserve(lids.size());
      for (LO lid : lids) {
        pack.push_back(overlapping_values[static_cast<std::size_t>(lid)]);
      }
    }
    auto incoming = source_.comm().alltoallv(std::move(outgoing));

    for (std::size_t i = 0; i < permute_src_.size(); ++i) {
      auto& slot = owned_values[static_cast<std::size_t>(permute_src_[i])];
      const Scalar v =
          overlapping_values[static_cast<std::size_t>(permute_dst_[i])];
      slot = (mode == CombineMode::kAdd) ? slot + v : v;
    }
    for (int r = 0; r < p; ++r) {
      const auto& lids = send_lids_[static_cast<std::size_t>(r)];
      const auto& vals = incoming[static_cast<std::size_t>(r)];
      require<CommError>(lids.size() == vals.size(),
                         "Import::apply_reverse: plan/payload size mismatch");
      for (std::size_t i = 0; i < lids.size(); ++i) {
        auto& slot = owned_values[static_cast<std::size_t>(lids[i])];
        slot = (mode == CombineMode::kAdd) ? slot + vals[i] : vals[i];
      }
    }
  }

 private:
  Map<LO, GO> source_;
  Map<LO, GO> target_;
  std::vector<LO> permute_src_;
  std::vector<LO> permute_dst_;
  std::vector<std::vector<LO>> recv_lids_;  // per source rank: target lids
  std::vector<std::vector<LO>> send_lids_;  // per dest rank: source lids
};

template <class LO = std::int32_t, class GO = std::int64_t>
class Export {
 public:
  /// Collective. `source` may overlap; `target` should be one-to-one.
  /// Data flows source -> target with combination at the owner.
  Export(const Map<LO, GO>& source, const Map<LO, GO>& target)
      : reverse_(target, source) {}

  const Map<LO, GO>& source_map() const { return reverse_.target_map(); }
  const Map<LO, GO>& target_map() const { return reverse_.source_map(); }

  std::size_t num_export() const { return reverse_.num_remote(); }

  /// Applies the plan: owner entries combine every rank's contribution.
  /// With kAdd, target entries that receive no contribution keep their
  /// current value, so callers typically zero the target first.
  template <class Scalar>
  void apply(std::span<const Scalar> source_values,
             std::span<Scalar> target_values,
             CombineMode mode = CombineMode::kAdd) const {
    reverse_.apply_reverse(source_values, target_values, mode);
  }

 private:
  // An Export source->target is exactly an Import target->source run
  // backwards; we reuse the plan and add the reverse application.
  friend class Import<LO, GO>;
  Import<LO, GO> reverse_;
};

}  // namespace pyhpc::tpetra
