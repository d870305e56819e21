#include "solvers/resilient.hpp"

#include <algorithm>

#include "isorropia/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tpetra/checkpoint.hpp"
#include "util/string_util.hpp"

namespace pyhpc::solvers {

namespace {

using TMap = tpetra::Map<>;

// The full CG recurrence state — exactly what a checkpoint must carry for
// the iteration to continue (not restart) after a failure.
struct CgState {
  Vector x, r, p;
  double rz = 0.0;
  int it = 0;
  // False when only x is known (initial guess, or a gmres-style restart):
  // r, p, rz are then recomputed from x before iterating.
  bool have_rp = false;

  explicit CgState(const Vector& x0) : x(x0), r(x0.map()), p(x0.map()) {}
};

void save_state(util::CheckpointStore& store, const std::string& key,
                const CgState& s) {
  const auto v = static_cast<std::uint64_t>(s.it);
  tpetra::checkpoint_vector(store, key + ".x", v, s.x);
  tpetra::checkpoint_vector(store, key + ".r", v, s.r);
  tpetra::checkpoint_vector(store, key + ".p", v, s.p);
  store.save_scalar(key + ".it", v, static_cast<double>(s.it));
  store.save_scalar(key + ".rz", v, s.rz);
}

// Newest version whose x-slice over [0, n) is complete (a version a dead
// rank never finished saving has holes and is skipped). `full` reports
// whether r/p/rz are also complete, i.e. the recurrence can continue
// rather than restart. Reads only globally-agreed store content, so every
// survivor picks the same version.
std::uint64_t latest_restorable(const util::CheckpointStore& store,
                                const std::string& key, std::int64_t n,
                                bool* full) {
  auto versions = store.versions(key + ".x");
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    const std::uint64_t v = *it;
    if (!store.covers(key + ".x", v, 0, n) ||
        !store.has_scalar(key + ".it", v)) {
      continue;
    }
    *full = store.covers(key + ".r", v, 0, n) &&
            store.covers(key + ".p", v, 0, n) &&
            store.has_scalar(key + ".rz", v);
    return v;
  }
  throw CheckpointError(
      util::cat("resilient_solve: no restorable checkpoint for '", key, "'"));
}

// Unpreconditioned CG driven from (and checkpointing back into) CgState.
// Structurally the same recurrence as cg_solve; hoisting the state out of
// the loop is what makes mid-solve resume possible.
SolveResult cg_checkpointed(const Matrix& a, const Vector& b, CgState& s,
                            util::CheckpointStore& store,
                            const ResilientOptions& options) {
  SolveResult result;
  const KrylovOptions& k = options.krylov;
  const double bnorm = b.norm2();
  if (bnorm == 0.0) {
    s.x.put_scalar(0.0);
    result.converged = true;
    return result;
  }

  Vector ap(b.map());
  if (!s.have_rp) {
    a.apply(s.x, s.r);
    s.r.update(1.0, b, -1.0);  // r = b - A x
    s.p.update(1.0, s.r, 0.0);
    s.rz = s.r.dot(s.r);
    s.have_rp = true;
  }
  double rel = s.r.norm2() / bnorm;
  result.iterations = s.it;

  while (s.it < k.max_iterations && rel > k.tolerance) {
    if (options.checkpoint_interval > 0 &&
        s.it % options.checkpoint_interval == 0) {
      save_state(store, options.key, s);
    }
    a.apply(s.p, ap);
    const double pap = s.p.dot(ap);
    require<NumericalError>(
        pap > 0.0, "resilient CG: operator not positive definite (p'Ap <= 0)");
    const double alpha = s.rz / pap;
    s.x.update(alpha, s.p, 1.0);
    s.r.update(-alpha, ap, 1.0);
    const double rz_new = s.r.dot(s.r);
    const double beta = rz_new / s.rz;
    s.rz = rz_new;
    s.p.update(1.0, s.r, beta);  // p = r + beta p
    rel = s.r.norm2() / bnorm;
    ++s.it;
    result.iterations = s.it;
    if (k.record_history) result.residual_history.push_back(rel);
    obs::counter("resilient_cg.residual", "solvers", rel);
  }
  result.converged = rel <= k.tolerance;
  result.achieved_tolerance = rel;
  return result;
}

// GMRES attempt: the Arnoldi basis is too entangled to checkpoint, so the
// iterate is saved at attempt entry and a failure restarts GMRES from the
// restored x — the standard restart semantics it already has.
SolveResult gmres_attempt(const Matrix& a, const Vector& b, CgState& s,
                          util::CheckpointStore& store,
                          const ResilientOptions& options) {
  tpetra::checkpoint_vector(store, options.key + ".x",
                            static_cast<std::uint64_t>(s.it), s.x);
  store.save_scalar(options.key + ".it", static_cast<std::uint64_t>(s.it),
                    static_cast<double>(s.it));
  KrylovOptions k = options.krylov;
  k.max_iterations = std::max(0, k.max_iterations - s.it);
  SolveResult result = gmres_solve(a, b, s.x, k);
  s.it += result.iterations;
  result.iterations = s.it;
  return result;
}

}  // namespace

ResilientResult resilient_solve(util::CheckpointStore& store, const Matrix& a,
                                const Vector& b, const Vector& x0,
                                const ResilientOptions& options) {
  require(a.is_fill_complete(), "resilient_solve: matrix not fill-complete");
  require<MapError>(a.row_map().is_contiguous() && b.map().is_contiguous(),
                    "resilient_solve: needs contiguous maps");
  require(options.solver == "cg" || options.solver == "gmres",
          "resilient_solve: solver must be 'cg' or 'gmres'");
  const std::int64_t n = a.row_map().num_global();
  const std::string& key = options.key;
  obs::Span span("resilient_solve", "recovery");

  // Persist the problem before iterating: local writes only, so no fault
  // can interrupt them (rank death fires on substrate traffic). Blob parts
  // are first-write-wins, making re-entry harmless.
  tpetra::checkpoint_matrix(store, key + ".A", a);
  {
    const auto view = b.local_view();
    store.save(key + ".b", 0, b.map().min_global_index(), view.data(),
               view.size());
  }
  tpetra::checkpoint_vector(store, key + ".x", 0, x0);
  store.save_scalar(key + ".it", 0, 0.0);

  auto& reg = obs::MetricsRegistry::global();
  comm::Communicator cur = a.row_map().comm();
  Matrix cur_a = a;
  Vector cur_b = b;
  CgState s(x0);

  ResilientResult res;
  int resolve_iterations = 0;
  bool rebuild = false;
  for (;;) {
    int attempt_start_it = s.it;
    bool attempt_failed = false;
    try {
      if (rebuild) {
        // Survivors re-host the problem: uniform map on the shrunken
        // communicator, operator restored from the blob, then rebalanced
        // by nonzeros (Isorropia) exactly as an initial partition would be.
        obs::Span rb("recovery.rebuild", "recovery");
        TMap fresh = TMap::uniform(cur, n);
        Matrix restored = tpetra::restore_matrix(store, key + ".A", fresh);
        TMap balanced = isorropia::partition_by_nonzeros(restored);
        cur_a = isorropia::rebalance_matrix(restored, balanced);
        cur_b = Vector(balanced);
        tpetra::restore_vector(store, key + ".b", 0, cur_b);

        bool full = false;
        const std::uint64_t v = latest_restorable(store, key, n, &full);
        s = CgState(Vector(balanced));
        tpetra::restore_vector(store, key + ".x", v, s.x);
        s.it = static_cast<int>(store.restore_scalar(key + ".it", v));
        if (full && options.solver == "cg") {
          tpetra::restore_vector(store, key + ".r", v, s.r);
          tpetra::restore_vector(store, key + ".p", v, s.p);
          s.rz = store.restore_scalar(key + ".rz", v);
          s.have_rp = true;
        }
        attempt_start_it = s.it;
        if (rb.active()) {
          rb.arg("version", static_cast<std::int64_t>(v));
          rb.arg("continued", static_cast<std::int64_t>(s.have_rp ? 1 : 0));
        }
        rebuild = false;
      }
      res.solve = options.solver == "gmres"
                      ? gmres_attempt(cur_a, cur_b, s, store, options)
                      : cg_checkpointed(cur_a, cur_b, s, store, options);
      if (res.recoveries > 0) resolve_iterations += s.it - attempt_start_it;
      res.final_size = cur.size();
      res.final_rank = cur.rank();
      res.x_global = s.x.gather_global();
      // Detection: a peer died under a collective-internal receive, the
      // communicator was revoked by another survivor, or a dropped message
      // starved a receive past its deadline. The rank's OWN death
      // (RankKilledError that is not PeerKilledError) is not caught — it
      // propagates so the runner contains it as a simulated crash. The
      // revoke happens here, before the exit agreement, so peers still
      // blocked inside the interrupted collective fall out and can join it.
    } catch (const PeerKilledError&) {
      reg.add("recovery.detections", 1.0);
      attempt_failed = true;
      cur.revoke();
    } catch (const RevokedError&) {
      reg.add("recovery.detections", 1.0);
      attempt_failed = true;
      cur.revoke();
    } catch (const RecvTimeoutError&) {
      reg.add("recovery.detections", 1.0);
      attempt_failed = true;
      cur.revoke();
    }
    // Exit agreement (the MPI_Comm_agree idiom): no rank may treat the
    // attempt as settled until every survivor has weighed in. Without it a
    // fault at the attempt boundary splits the survivors — ranks whose own
    // collectives all completed return success and sail into the caller's
    // next operation, while the rank that observed the fault revokes and
    // shrinks, and the two camps deadlock running different protocols on
    // one communicator. A nonzero verdict (a corpse, a returned rank, or a
    // failure flag from a starved peer) sends *everyone* into recovery.
    const std::uint64_t verdict =
        cur.agree(attempt_failed ? comm::Communicator::kAgreeFailureFlag : 0);
    if (verdict == 0) {
      reg.set_max("recovery.checkpoint_bytes",
                  static_cast<double>(store.bytes_stored()));
      if (cur.rank() == 0 && res.recoveries > 0) {
        reg.add("recovery.resolve_iterations",
                static_cast<double>(resolve_iterations));
      }
      if (span.active()) {
        span.arg("recoveries", static_cast<std::int64_t>(res.recoveries));
        span.arg("final_size", static_cast<std::int64_t>(res.final_size));
        span.arg("iterations", static_cast<std::int64_t>(res.solve.iterations));
      }
      return res;
    }
    if (attempt_failed && res.recoveries > 0) {
      resolve_iterations += s.it - attempt_start_it;
    }
    require<CommError>(
        res.recoveries < options.max_recoveries,
        "resilient_solve: recovery budget (", options.max_recoveries,
        ") exhausted");
    // ULFM sequence: revoke (poison in-flight ops so every survivor falls
    // out), agree + shrink (dense survivor communicator), then rebuild.
    cur.revoke();
    for (;;) {
      try {
        cur = cur.shrink();
        break;
      } catch (const PeerKilledError&) {
        // The would-be creator died before publishing the child; the next
        // agreement round excludes it. Strictly-growing dead set bounds
        // this loop by the rank count.
        reg.add("recovery.detections", 1.0);
      }
    }
    ++res.recoveries;
    if (cur.rank() == 0) reg.add("recovery.shrinks", 1.0);
    rebuild = true;
  }
}

}  // namespace pyhpc::solvers
