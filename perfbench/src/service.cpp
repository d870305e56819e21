// service — ODIN's driver control messages, served through the service
// layer: 1 driver + 3 workers, one closed-loop client on the driver thread.
//
// Why this workload: tiny control payloads, acks and replies do all the
// work, the workers' setup cache serves the block factorisation every
// round, and no bulk data moves. One step is one round on a 60-element
// array: create_full ×2, axpy, block_solve, reduce_sum, free_array ×4 —
// the client sends the next round only after reduce_sum returns. The
// service runs with the library's default options.
#include <cmath>

#include "bench.hpp"
#include "comm/runner.hpp"
#include "odin/service.hpp"

namespace perfbench {

namespace {

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;

constexpr std::int64_t kElements = 60;  // 20 per worker

struct Params {
  int warmup;  // set-up rounds: fill the setup cache and transport arena
  int rounds;  // steps per repetition
};

// Driver-side counters over the timed rounds.
struct Counters {
  pc::CommStats driver_comm;  // rank 0, timed rounds only
  pc::CommStats world;        // all ranks, whole repetition
  double payloads = 0.0, control_bytes = 0.0, control_messages = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
};

class Service final : public Workload {
 public:
  explicit Service(const RunConfig& cfg)
      : p_(cfg.tiny ? Params{5, 50} : Params{200, 10000}),
        fill1_(0.5 + unit_value(cfg.seed, 1)),
        fill2_(0.5 + unit_value(cfg.seed, 2)),
        alpha_(0.25 + 0.75 * unit_value(cfg.seed, 3)) {
    // Serial reference: each worker solves tridiag(-1, 2, -1) x = v·1 on its
    // m-element block, whose solution x_i = v i (m + 1 - i) / 2 sums to
    // v m (m + 1) (m + 2) / 12.
    const double v = alpha_ * fill1_ + fill2_;
    const int workers = ranks() - 1;
    for (int w = 0; w < workers; ++w) {
      const double m = static_cast<double>(kElements / workers +
                                           (w < kElements % workers ? 1 : 0));
      expected_ += v * m * (m + 1.0) * (m + 2.0) / 12.0;
    }
  }

  int ranks() const override { return 4; }
  int lanes() const override { return 1; }
  int steps_per_rep() const override { return p_.rounds; }

  RepResult run_rep(Tracer* tracer) override;
  std::vector<std::string> sampled_spans() const override {
    return {"odin.service.sync"};
  }
  void layer_metrics(const TraceSummary& summary, std::int64_t traced_steps,
                     int traced_reps, Report& out) const override;

 private:
  double round(od::Session& s) const {
    int a, b, c, d;
    double sum;
    {
      Span sp("odin.service.submit");
      a = s.create_full(kElements, fill1_);
    }
    {
      Span sp("odin.service.submit");
      b = s.create_full(kElements, fill2_);
    }
    {
      Span sp("odin.service.submit");
      c = s.axpy(alpha_, a, b);
    }
    {
      Span sp("odin.service.submit");
      d = s.block_solve(c);
    }
    {
      Span sp("odin.service.sync");
      sum = s.reduce_sum(d);
    }
    for (int id : {a, b, c, d}) {
      Span sp("odin.service.submit");
      s.free_array(id);
    }
    return sum;
  }
  bool matches(double sum) const {
    return std::abs(sum - expected_) <= 1e-12 * std::abs(expected_);
  }

  Params p_;
  double fill1_, fill2_, alpha_;
  double expected_ = 0.0;

  Counters totals_;
  std::int64_t steps_done_ = 0;
  int reps_done_ = 0;
};

RepResult Service::run_rep(Tracer* tracer) {
  RepResult rep;
  rep.step_ms.reserve(static_cast<std::size_t>(p_.rounds));
  Counters c;

  pc::CommConfig cfg;
  cfg.threads = lanes();
  const std::int64_t t_world = now_ns();
  std::int64_t t_checked = 0;
  c.world = pc::run_with_stats(ranks(), cfg, [&](pc::Communicator& comm) {
    od::ServiceContext svc(comm, od::ServiceOptions{});
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    if (tracer != nullptr) tracer->attach(comm.rank());
    od::Session session;
    bool warmup_ok = true;
    {
      Span setup(kSetupSpan);
      session = svc.open_session();
      for (int i = 0; i < p_.warmup; ++i) {
        warmup_ok = matches(round(session)) && warmup_ok;
      }
    }
    rep.setup_s = static_cast<double>(now_ns() - t_world) * 1e-9;
    // Set-up rounds are checked too; any failure there counts as one
    // failed step.
    if (!warmup_ok) ++rep.steps_failed;

    auto& driver = svc.driver();
    const pc::CommStats c0 = comm.stats();
    const double payloads0 = static_cast<double>(driver.payloads_sent());
    const double bytes0 = static_cast<double>(driver.control_bytes_sent());
    const double msgs0 = static_cast<double>(driver.control_messages_sent());
    const double hits0 = obs_value("service.cache.hits");
    const double misses0 = obs_value("service.cache.misses");
    for (int i = 0; i < p_.rounds; ++i) {
      const std::int64_t t0 = now_ns();
      double sum;
      {
        Span step(kStepSpan);
        sum = round(session);
      }
      const std::int64_t t1 = now_ns();
      rep.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      if (!matches(sum)) ++rep.steps_failed;  // untimed check
    }
    add_delta(c.driver_comm, c0, comm.stats());
    c.payloads = static_cast<double>(driver.payloads_sent()) - payloads0;
    c.control_bytes = static_cast<double>(driver.control_bytes_sent()) - bytes0;
    c.control_messages =
        static_cast<double>(driver.control_messages_sent()) - msgs0;
    c.cache_hits = obs_value("service.cache.hits") - hits0;
    c.cache_misses = obs_value("service.cache.misses") - misses0;
    t_checked = now_ns();
    session.close();
    svc.shutdown();
  });
  rep.teardown_s = static_cast<double>(now_ns() - t_checked) * 1e-9;

  totals_.driver_comm += c.driver_comm;
  totals_.world += c.world;
  totals_.payloads += c.payloads;
  totals_.control_bytes += c.control_bytes;
  totals_.control_messages += c.control_messages;
  totals_.cache_hits += c.cache_hits;
  totals_.cache_misses += c.cache_misses;
  steps_done_ += p_.rounds;
  ++reps_done_;
  return rep;
}

void Service::layer_metrics(const TraceSummary& summary,
                            std::int64_t /*traced_steps*/, int /*traced_reps*/,
                            Report& out) const {
  auto& m = out.per_layer;
  const NameStats submit = summary.get(0, kStepSpan, "odin.service.submit");
  m["odin.service.submit_us"].value =
      submit.count > 0
          ? submit.total_ms * 1e3 / static_cast<double>(submit.count)
          : 0.0;
  const auto it = summary.samples.find("odin.service.sync");
  if (it != summary.samples.end()) {
    m["odin.service.sync_us.p50"].value = it->second.quantile(0.50) * 1e3;
    m["odin.service.sync_us.p99"].value = it->second.quantile(0.99) * 1e3;
  }

  const double rounds = static_cast<double>(steps_done_);
  const double reps = static_cast<double>(reps_done_);
  const auto& t = totals_;
  m["odin.driver.payloads_per_round"].value = t.payloads / rounds;
  m["odin.driver.control_bytes_per_round"].value = t.control_bytes / rounds;
  m["odin.service.msgs_per_payload"].value =
      t.payloads > 0.0 ? t.control_messages / t.payloads : 0.0;
  const double lookups = t.cache_hits + t.cache_misses;
  m["util.setup_cache.hit_rate"].value =
      lookups > 0.0 ? t.cache_hits / lookups : 0.0;
  m["comm.p2p_messages_per_round"].value =
      static_cast<double>(t.driver_comm.p2p_messages_sent +
                          t.driver_comm.p2p_messages_received) /
      rounds;
  m["comm.arena_hits"].value = static_cast<double>(t.world.arena_hits) / reps;
  m["comm.arena_misses"].value =
      static_cast<double>(t.world.arena_misses) / reps;
  m["comm.retries"].value = static_cast<double>(t.world.retries) / reps;
  m["comm.timeouts"].value = static_cast<double>(t.world.timeouts) / reps;
}

}  // namespace

std::unique_ptr<Workload> make_service(const RunConfig& cfg) {
  return std::make_unique<Service>(cfg);
}

}  // namespace perfbench
