// redistribute — ODIN's distribution changes: the redistribution
// scenario's layout cycle, with a redistribution_cost planning pass before
// every hop.
//
// Why this workload: ODIN owner lookup and bulk alltoallv do all the work;
// no solver, kernel or driver code runs. The 1D leg goes block → cyclic →
// block-cyclic → skewed explicit → replicated → block, the 2D leg changes
// the distributed axis (block rows → block cols → cyclic cols →
// block-cyclic rows → block rows). One step is one full cycle; both arrays
// end it back in block layout, where every element is checked against its
// global-index formula. Set-up builds the seeded arrays and runs one
// warm-up cycle, so the timed cycles reuse memory the allocator already
// holds. World: 3 ranks × 1 lane.
#include <optional>

#include "bench.hpp"
#include "comm/runner.hpp"
#include "odin/dist_array.hpp"

namespace perfbench {

namespace {

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;

using Array = od::DistArray<double>;
using od::Distribution;
using od::index_t;

struct Params {
  index_t n;           // 1D leg length
  index_t rows, cols;  // 2D leg extents
  index_t block;       // block-cyclic block size
  int cycles;          // steps per repetition
};

// Span names of the 1D hops, in cycle order.
const char* const kHopSpans[] = {
    "odin.redistribute.cyclic", "odin.redistribute.block_cyclic",
    "odin.redistribute.explicit", "odin.redistribute.replicated",
    "odin.redistribute.block"};

constexpr int kRanks = 3;

struct RankCounters {
  pc::CommStats comm;
  index_t moved = 0;  // rank 0: global elements that changed owner
};

class Redistribute final : public Workload {
 public:
  explicit Redistribute(const RunConfig& cfg)
      : p_(cfg.tiny ? Params{3001, 30, 20, 3, 2}
                    : Params{65536, 128, 256, 16, 16}),
        seed1_(mix64(cfg.seed ^ 0x1d)),
        seed2_(mix64(cfg.seed ^ 0x2d)) {
    // Seeded skew: quadratic cut points (late ranks own much more), each
    // interior cut jittered by up to n/(8p²) either way.
    const index_t p = ranks();
    std::vector<index_t> cut(static_cast<std::size_t>(p + 1));
    cut[0] = 0;
    cut[static_cast<std::size_t>(p)] = p_.n;
    for (index_t q = 1; q < p; ++q) {
      const double u = unit_value(cfg.seed, static_cast<std::uint64_t>(q));
      const double jitter = (u - 0.5) * static_cast<double>(p_.n) /
                            static_cast<double>(4 * p * p);
      cut[static_cast<std::size_t>(q)] =
          p_.n * q * q / (p * p) + static_cast<index_t>(jitter);
    }
    for (index_t q = 0; q < p; ++q) {
      skew_.push_back(cut[static_cast<std::size_t>(q + 1)] -
                      cut[static_cast<std::size_t>(q)]);
    }
  }

  int ranks() const override { return kRanks; }
  int lanes() const override { return 1; }
  int steps_per_rep() const override { return p_.cycles; }

  RepResult run_rep(Tracer* tracer) override;
  void layer_metrics(const TraceSummary& summary, std::int64_t traced_steps,
                     int traced_reps, Report& out) const override;

 private:
  double value1(index_t g) const {
    return unit_value(seed1_, static_cast<std::uint64_t>(g));
  }
  double value2(index_t i, index_t j) const {
    return unit_value(seed2_, static_cast<std::uint64_t>(i * p_.cols + j));
  }
  bool verify(const Array& a) const {
    for (index_t l = 0; l < a.local_size(); ++l) {
      const auto g = a.dist().global_of_local(l);
      const double want = g.size() == 1 ? value1(g[0]) : value2(g[0], g[1]);
      if (a.local_view()[static_cast<std::size_t>(l)] != want) return false;
    }
    return true;
  }

  Params p_;
  std::uint64_t seed1_, seed2_;
  std::vector<index_t> skew_;

  RankCounters totals_[kRanks];
  std::int64_t steps_done_ = 0;
};

void hop(Array& a, const Distribution& to, const char* span, index_t& moved) {
  {
    Span s("odin.plan");
    moved += od::redistribution_cost(a, to);
  }
  Span s(span);
  a = od::redistribute(a, to);
}

RepResult Redistribute::run_rep(Tracer* tracer) {
  RepResult rep;
  rep.step_ms.reserve(static_cast<std::size_t>(p_.cycles));
  RankCounters counters[kRanks];

  pc::CommConfig cfg;
  cfg.threads = lanes();
  const std::int64_t t_world = now_ns();
  std::int64_t t_checked = 0;
  pc::run(ranks(), cfg, [&](pc::Communicator& comm) {
    if (tracer != nullptr) tracer->attach(comm.rank());
    const bool root = comm.rank() == 0;
    RankCounters& mine = counters[comm.rank()];

    const od::Shape s1{p_.n}, s2{p_.rows, p_.cols};
    std::vector<Distribution> leg1, leg2;  // hop targets in cycle order
    std::optional<Array> a1, a2;
    auto run_cycle = [&](index_t& moved) {
      for (std::size_t h = 0; h < leg1.size(); ++h) {
        hop(*a1, leg1[h], kHopSpans[h], moved);
      }
      for (const auto& to : leg2) {
        hop(*a2, to, "odin.redistribute.axis2d", moved);
      }
    };
    // Untimed check: every element back in place with its value.
    auto verified = [&] {
      const int bad = !(verify(*a1) && verify(*a2));
      return comm.allreduce_value(bad, std::plus<int>{}) == 0;
    };
    {
      Span setup(kSetupSpan);
      leg1 = {Distribution::cyclic(comm, s1),
              Distribution::block_cyclic(comm, s1, 0, p_.block),
              Distribution::explicit_block(comm, s1, 0, skew_),
              Distribution::replicated(comm, s1),
              Distribution::block(comm, s1)};
      leg2 = {Distribution::block(comm, s2, 1),
              Distribution::cyclic(comm, s2, 1),
              Distribution::block_cyclic(comm, s2, 0, p_.block),
              Distribution::block(comm, s2, 0)};
      a1.emplace(Array::fromfunction(
          Distribution::block(comm, s1),
          [this](const std::vector<index_t>& g) { return value1(g[0]); }));
      a2.emplace(Array::fromfunction(
          Distribution::block(comm, s2, 0),
          [this](const std::vector<index_t>& g) {
            return value2(g[0], g[1]);
          }));
      index_t warmup_moved = 0;
      run_cycle(warmup_moved);
      comm.barrier();
    }
    if (root) rep.setup_s = static_cast<double>(now_ns() - t_world) * 1e-9;
    // A failed warm-up cycle counts as one failed step.
    if (!verified() && root) ++rep.steps_failed;

    for (int cycle = 0; cycle < p_.cycles; ++cycle) {
      comm.barrier();
      const pc::CommStats c0 = comm.stats();
      index_t moved = 0;
      const std::int64_t t0 = now_ns();
      {
        Span step(kStepSpan);
        run_cycle(moved);
      }
      const std::int64_t t1 = now_ns();
      add_delta(mine.comm, c0, comm.stats());
      if (root) {
        mine.moved += moved;
        rep.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }

      if (!verified() && root) ++rep.steps_failed;
    }
    comm.barrier();
    if (root) t_checked = now_ns();
  });
  rep.teardown_s = static_cast<double>(now_ns() - t_checked) * 1e-9;

  for (int rank = 0; rank < kRanks; ++rank) {
    totals_[rank].comm += counters[rank].comm;
    totals_[rank].moved += counters[rank].moved;
  }
  steps_done_ += p_.cycles;
  return rep;
}

void Redistribute::layer_metrics(const TraceSummary& summary,
                                 std::int64_t traced_steps, int /*traced_reps*/,
                                 Report& out) const {
  const double steps = static_cast<double>(traced_steps);
  auto step_ms = [&](const char* name) {
    return summary.get(0, kStepSpan, name).total_ms / steps;
  };
  auto& m = out.per_layer;
  m["odin.plan_ms"].value = step_ms("odin.plan");
  double exchange_ms = 0.0;
  for (const char* name : kHopSpans) exchange_ms += step_ms(name);
  exchange_ms += step_ms("odin.redistribute.axis2d");
  m["odin.redistribute_ms.cyclic"].value = step_ms(kHopSpans[0]);
  m["odin.redistribute_ms.block_cyclic"].value = step_ms(kHopSpans[1]);
  m["odin.redistribute_ms.explicit"].value = step_ms(kHopSpans[2]);
  m["odin.redistribute_ms.replicated"].value = step_ms(kHopSpans[3]);
  m["odin.redistribute_ms.block"].value = step_ms(kHopSpans[4]);
  m["odin.redistribute_ms.axis2d"].value = step_ms("odin.redistribute.axis2d");

  const double all_steps = static_cast<double>(steps_done_);
  pc::CommStats comm;
  for (const auto& t : totals_) comm += t.comm;
  const double coll_bytes =
      static_cast<double>(comm.coll_bytes_sent) / all_steps;
  m["odin.elements_moved"].value =
      static_cast<double>(totals_[0].moved) / all_steps;
  m["odin.exchange_gbps"].value =
      exchange_ms > 0.0 ? coll_bytes / (exchange_ms * 1e-3) * 1e-9 : 0.0;
  m["comm.coll_messages"].value =
      static_cast<double>(comm.coll_messages_sent) / all_steps;
  m["comm.coll_bytes"].value = coll_bytes;
  m["comm.bytes_copied"].value =
      static_cast<double>(comm.bytes_copied) / all_steps;
  m["comm.zero_copy_bytes"].value =
      static_cast<double>(comm.zero_copy_bytes) / all_steps;
}

}  // namespace

std::unique_ptr<Workload> make_redistribute(const RunConfig& cfg) {
  return std::make_unique<Redistribute>(cfg);
}

}  // namespace perfbench
