// fig2_imex — the paper's Fig. 2 / §V pipeline turned into time stepping:
// ODIN allocates and initialises the field, hands it to the Tpetra stack,
// and every step the solver's right-hand side comes from a MiniPy model
// that Seamless JIT-compiles.
//
// Why this workload: precond (the AMG V-cycle), the tpetra kernels, the
// Krylov solver, Seamless and the TaskPool do most of the work here and
// none anywhere else; comm carries halo exchanges plus small allreduces.
// Every step does the same work: a warm-started AMG-PCG solve of an IMEX
// step whose relative start residual stays constant, so iterations do not
// fall off as the run goes on.
//
// Problem: u_t = Δu + s(u) on the unit square, homogeneous Dirichlet,
// s(u) = u - 0.1 u³, on an n×n interior grid (5-point Δ_h, h = 1/(n+1)).
// One IMEX step: (I - Δt Δ_h) u' = u + Δt s(u). World: 2 ranks × 2 lanes.
#include <cmath>
#include <cstring>
#include <optional>
#include <numbers>

#include "bench.hpp"
#include "comm/runner.hpp"
#include "odin/interop.hpp"
#include "precond/amg.hpp"
#include "seamless/seamless.hpp"
#include "solvers/krylov.hpp"

namespace perfbench {

namespace {

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace pp = pyhpc::precond;
namespace sm = pyhpc::seamless;
namespace sv = pyhpc::solvers;
namespace tp = pyhpc::tpetra;

using Vector = tp::Vector<double>;
using Matrix = tp::CrsMatrix<double>;

// Fig. 2's model, prototyped in MiniPy.
const char* kModelSource =
    "def model(u, out):\n"
    "    for i in range(len(u)):\n"
    "        out[i] = u[i] - 0.1 * u[i] * u[i] * u[i]\n"
    "    return 0\n";

constexpr double kTolerance = 1e-8;
// The true residual ||b - A x|| / ||b|| the check accepts: the solver's
// recurrence residual meets kTolerance, the recomputed one may drift a
// little above it in floating point.
constexpr double kTrueResidualLimit = 10.0 * kTolerance;
constexpr int kModes = 3;  // seeded perturbation: sin modes k, l <= kModes
constexpr int kRanks = 2;
constexpr int kLanes = 2;

struct Params {
  std::int64_t n;  // interior grid points per side
  int steps;       // time steps per repetition
  double dt;
};

// Timing decorators handed to cg_solve in traced repetitions: every apply
// becomes a span of the layer that does the work.
class TimedOperator final : public tp::Operator<double> {
 public:
  explicit TimedOperator(const Matrix& a) : a_(a) {}
  void apply(const Vector& x, Vector& y) const override {
    Span s("tpetra.spmv");
    a_.apply(x, y);
  }
  const map_type& domain_map() const override { return a_.domain_map(); }
  const map_type& range_map() const override { return a_.range_map(); }

 private:
  const Matrix& a_;
};

class TimedPreconditioner final : public pp::Preconditioner {
 public:
  explicit TimedPreconditioner(const pp::Preconditioner& m) : m_(m) {}
  void apply(const Vector& r, Vector& z) const override {
    Span s("precond.amg_apply");
    m_.apply(r, z);
  }
  std::string name() const override { return m_.name(); }

 private:
  const pp::Preconditioner& m_;
};

void native_model(std::span<const double> u, std::span<double> out) {
  for (std::size_t i = 0; i < u.size(); ++i) {
    out[i] = u[i] - 0.1 * u[i] * u[i] * u[i];
  }
}

// Per-rank counters over the timed steps, written only by that rank.
struct RankCounters {
  pc::CommStats comm;
  std::int64_t iterations = 0;
  double pool_tasks = 0.0;  // rank 0 only: process-global obs deltas
  double pool_steals = 0.0;
};

class Fig2Imex final : public Workload {
 public:
  explicit Fig2Imex(const RunConfig& cfg)
      : p_(cfg.tiny ? Params{48, 4, 1e-3} : Params{384, 60, 1e-3}) {
    // Seeded initial field: a fixed dominant bump plus low-mode amplitudes
    // within ±0.01. Every seed then takes the same iterations on every step;
    // ±0.1 already moved the first few steps between 10 and 11 iterations.
    for (int k = 0; k < kModes * kModes; ++k) {
      amp_[k] = k == 0 ? 1.5 : 0.01 * (2.0 * unit_value(cfg.seed, k) - 1.0);
    }
    const double h = 1.0 / static_cast<double>(p_.n + 1);
    for (int k = 0; k < kModes; ++k) {
      for (std::int64_t i = 0; i < p_.n; ++i) {
        sines_.push_back(std::sin((k + 1) * std::numbers::pi *
                                  static_cast<double>(i + 1) * h));
      }
    }
  }

  int ranks() const override { return kRanks; }
  int lanes() const override { return kLanes; }
  int steps_per_rep() const override { return p_.steps; }

  RepResult run_rep(Tracer* tracer) override;
  void layer_metrics(const TraceSummary& summary, std::int64_t traced_steps,
                     int traced_reps, Report& out) const override;

 private:
  // u0 at grid point g = j*n + i: sum of amp[k][l] sin((k+1)πx) sin((l+1)πy).
  double initial(std::int64_t g) const {
    const std::int64_t i = g % p_.n, j = g / p_.n;
    double u = 0.0;
    for (int k = 0; k < kModes; ++k) {
      for (int l = 0; l < kModes; ++l) {
        u += amp_[k * kModes + l] *
             sines_[static_cast<std::size_t>(k * p_.n + i)] *
             sines_[static_cast<std::size_t>(l * p_.n + j)];
      }
    }
    return u;
  }

  Matrix assemble(const tp::Map<>& map) const;

  Params p_;
  double amp_[kModes * kModes] = {};
  std::vector<double> sines_;  // sin((k+1)π(i+1)h), k-major

  // Accumulated over every repetition (all reps do identical work).
  RankCounters totals_[kRanks];
  std::int64_t steps_done_ = 0;
  int amg_levels_ = 0;
  double amg_complexity_ = 0.0;
  double spmv_bytes_ = 0.0;  // computed bytes one SpMV moves, all ranks
};

Matrix Fig2Imex::assemble(const tp::Map<>& map) const {
  const double h = 1.0 / static_cast<double>(p_.n + 1);
  const double r = p_.dt / (h * h);
  const std::int64_t n = p_.n;
  Matrix a(map);
  std::int64_t cols[5];
  double vals[5];
  for (std::int32_t lid = 0; lid < map.num_local(); ++lid) {
    const std::int64_t g = map.local_to_global(lid);
    const std::int64_t i = g % n, j = g / n;
    int k = 0;
    cols[k] = g;
    vals[k++] = 1.0 + 4.0 * r;
    if (i > 0) { cols[k] = g - 1; vals[k++] = -r; }
    if (i + 1 < n) { cols[k] = g + 1; vals[k++] = -r; }
    if (j > 0) { cols[k] = g - n; vals[k++] = -r; }
    if (j + 1 < n) { cols[k] = g + n; vals[k++] = -r; }
    a.insert_global_values(g, std::span<const std::int64_t>(cols, k),
                           std::span<const double>(vals, k));
  }
  a.fill_complete();
  return a;
}

RepResult Fig2Imex::run_rep(Tracer* tracer) {
  RepResult rep;
  rep.step_ms.reserve(static_cast<std::size_t>(p_.steps));
  RankCounters counters[kRanks];
  int levels = 0;
  double complexity = 0.0, spmv_bytes = 0.0;

  pc::CommConfig cfg;
  cfg.threads = lanes();
  const std::int64_t t_world = now_ns();
  std::int64_t t_checked = 0;  // rank 0: last check finished
  pc::run(ranks(), cfg, [&](pc::Communicator& comm) {
    if (tracer != nullptr) tracer->attach(comm.rank());
    const bool root = comm.rank() == 0;
    RankCounters& mine = counters[comm.rank()];

    std::optional<Vector> x;
    std::optional<Matrix> a;
    std::optional<pp::AmgPreconditioner> amg;
    std::optional<sm::Engine> engine;
    {
      Span setup(kSetupSpan);
      {
        Span s("odin.init");
        auto dist = od::Distribution::block(comm, od::Shape({p_.n * p_.n}), 0);
        auto u0 = od::DistArray<double>::fromfunction(
            dist, [this](const std::vector<od::index_t>& g) {
              return initial(g[0]);
            });
        x.emplace(od::to_tpetra(u0));
      }
      {
        Span s("tpetra.assemble");
        a.emplace(assemble(x->map()));
      }
      {
        Span s("precond.amg_setup");
        amg.emplace(*a);
      }
      {
        Span s("seamless.jit_compile");
        engine.emplace(kModelSource);
        engine->jit("model", {sm::JitType::kArray, sm::JitType::kArray});
      }
      comm.barrier();
    }
    if (root) rep.setup_s = static_cast<double>(now_ns() - t_world) * 1e-9;

    // Untimed diagnostics.
    const double complexity_all = amg->operator_complexity();
    const double local_bytes =
        static_cast<double>(a->num_local_entries()) * (8.0 + 4.0) +
        static_cast<double>(a->num_local_rows() + 1) * 8.0 +
        static_cast<double>(a->col_map().num_local()) * 8.0 +
        static_cast<double>(a->num_local_rows()) * 8.0;
    const double bytes_all =
        comm.allreduce_value(local_bytes, std::plus<double>{});
    if (root) {
      levels = amg->num_levels();
      complexity = complexity_all;
      spmv_bytes = bytes_all;
    }

    const auto& map = x->map();
    Vector f(map), b(map), expected(map), r(map);
    const TimedOperator timed_a(*a);
    const TimedPreconditioner timed_amg(*amg);
    const tp::Operator<double>& op =
        tracer != nullptr ? static_cast<const tp::Operator<double>&>(timed_a)
                          : *a;
    const pp::Preconditioner& prec =
        tracer != nullptr ? static_cast<const pp::Preconditioner&>(timed_amg)
                          : *amg;
    sv::KrylovOptions opt;
    opt.tolerance = kTolerance;

    for (int step = 0; step < p_.steps; ++step) {
      // Untimed: native reference of the model on this step's input, then
      // line every rank up and snapshot the counters.
      native_model(x->local_view(), expected.local_view());
      comm.barrier();
      const double tasks0 = root ? obs_value("pool.tasks") : 0.0;
      const double steals0 = root ? obs_value("pool.steals") : 0.0;
      comm.barrier();
      const pc::CommStats c0 = comm.stats();

      const std::int64_t t0 = now_ns();
      sv::SolveResult res;
      {
        Span s(kStepSpan);
        {
          Span m("seamless.model");
          engine->run_jit("model",
                          {sm::Value::of(sm::ArrayValue::view(
                               x->local_view().data(), x->local_view().size())),
                           sm::Value::of(sm::ArrayValue::view(
                               f.local_view().data(), f.local_view().size()))});
        }
        {
          Span v("tpetra.vector");
          b.update(1.0, *x, 0.0);
          b.update(p_.dt, f, 1.0);
        }
        {
          Span c("solvers.cg_solve");
          res = sv::cg_solve(op, b, *x, opt, &prec);
        }
      }
      const std::int64_t t1 = now_ns();

      add_delta(mine.comm, c0, comm.stats());
      mine.iterations += res.iterations;
      comm.barrier();
      if (root) {
        mine.pool_tasks += obs_value("pool.tasks") - tasks0;
        mine.pool_steals += obs_value("pool.steals") - steals0;
        rep.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }
      comm.barrier();

      // Untimed checks: converged, independent true residual, and the JIT
      // output bit-identical to the native model.
      a->apply(*x, r);
      r.update(1.0, b, -1.0);
      const double true_rel = r.norm2() / b.norm2();
      const auto fv = f.local_view();
      const auto ev = expected.local_view();
      const int local_bad =
          std::memcmp(fv.data(), ev.data(), fv.size() * sizeof(double)) != 0;
      const int any_bad =
          comm.allreduce_value(local_bad, std::plus<int>{});
      const bool ok = res.converged && true_rel <= kTrueResidualLimit &&
                      std::isfinite(true_rel) && any_bad == 0;
      if (root && !ok) ++rep.steps_failed;
    }
    comm.barrier();
    if (root) t_checked = now_ns();
  });
  rep.teardown_s = static_cast<double>(now_ns() - t_checked) * 1e-9;

  for (int rank = 0; rank < kRanks; ++rank) {
    totals_[rank].comm += counters[rank].comm;
    totals_[rank].iterations += counters[rank].iterations;
    totals_[rank].pool_tasks += counters[rank].pool_tasks;
    totals_[rank].pool_steals += counters[rank].pool_steals;
  }
  steps_done_ += p_.steps;
  amg_levels_ = levels;
  amg_complexity_ = complexity;
  spmv_bytes_ = spmv_bytes;
  return rep;
}

void Fig2Imex::layer_metrics(const TraceSummary& summary,
                             std::int64_t traced_steps, int traced_reps,
                             Report& out) const {
  const double steps = static_cast<double>(traced_steps);
  const double reps = static_cast<double>(traced_reps);
  auto setup = [&](const char* name) {
    return summary.get(0, kSetupSpan, name).total_ms / reps;
  };
  auto step = [&](const char* name) {
    return summary.get(0, kStepSpan, name);
  };
  auto& m = out.per_layer;
  m["odin.init_ms"].value = setup("odin.init");
  m["tpetra.assemble_ms"].value = setup("tpetra.assemble");
  m["precond.amg_setup_ms"].value = setup("precond.amg_setup");
  m["seamless.jit_compile_ms"].value = setup("seamless.jit_compile");

  const NameStats amg = step("precond.amg_apply");
  const NameStats spmv = step("tpetra.spmv");
  m["precond.amg_apply_ms"].value = amg.total_ms / steps;
  m["precond.amg_apply_calls"].value = static_cast<double>(amg.count) / steps;
  m["tpetra.spmv_ms"].value = spmv.total_ms / steps;
  m["tpetra.spmv_calls"].value = static_cast<double>(spmv.count) / steps;
  m["tpetra.spmv_gbps"].value =
      spmv.total_ms > 0.0 ? static_cast<double>(spmv.count) * spmv_bytes_ /
                                (spmv.total_ms * 1e-3) * 1e-9
                          : 0.0;
  m["tpetra.vector_ms"].value = step("tpetra.vector").total_ms / steps;
  m["solvers.cg_self_ms"].value = step("solvers.cg_solve").self_ms / steps;
  m["seamless.model_ms"].value = step("seamless.model").total_ms / steps;

  // Counters cover every repetition of the run; all reps do the same work.
  const double all_steps = static_cast<double>(steps_done_);
  pc::CommStats comm;
  for (const auto& t : totals_) comm += t.comm;
  m["solvers.iterations"].value =
      static_cast<double>(totals_[0].iterations) / all_steps;
  m["comm.p2p_messages"].value =
      static_cast<double>(comm.p2p_messages_sent) / all_steps;
  m["comm.p2p_bytes"].value =
      static_cast<double>(comm.p2p_bytes_sent) / all_steps;
  m["comm.collectives"].value =
      static_cast<double>(comm.collectives) / all_steps;
  m["util.pool.tasks"].value = totals_[0].pool_tasks / all_steps;
  m["util.pool.steals"].value = totals_[0].pool_steals / all_steps;
  m["precond.amg_levels"].value = amg_levels_;
  m["precond.amg_op_complexity"].value = amg_complexity_;
}

}  // namespace

std::unique_ptr<Workload> make_fig2_imex(const RunConfig& cfg) {
  return std::make_unique<Fig2Imex>(cfg);
}

}  // namespace perfbench
