// Exact counter claims (EXPERIMENTS.md E3, E7, E12, E13 and E19), pinned
// on small worlds. Registered under the `claims` CTest label:
// `ctest -L claims`.
//
// The control-plane worlds keep the library's wire protocol and lengthen
// only the ack, reply and coalescing time windows, so a host stall can fire
// neither a retransmission nor a time-window flush mid-count: the counts
// below are then exact.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "odin/service.hpp"
#include "odin/slicing.hpp"
#include "precond/amg.hpp"
#include "solvers/krylov.hpp"

namespace pc = pyhpc::comm;
namespace gl = pyhpc::galeri;
namespace od = pyhpc::odin;
namespace pp = pyhpc::precond;
namespace sv = pyhpc::solvers;
namespace tp = pyhpc::tpetra;

using namespace std::chrono_literals;

namespace {

od::ServiceOptions stall_proof(od::ServiceOptions opts) {
  opts.driver.ack_timeout = 10s;
  opts.driver.reply_timeout = 10s;
  return opts;
}

}  // namespace

// perfbench's `service` round on 1 driver + 3 workers: create_full x2,
// axpy, block_solve, reduce_sum, free_array x4 on 60 elements. The four
// frees and the next round's four submissions ride with the reduce in one
// payload per worker, so a round ships 3 payloads of 9 control messages
// (1,296 control bytes) and the driver books 3 sends, 3 acks and 3
// replies. (With the reduce in a payload of its own it was 6 payloads and
// 15 driver p2p messages for the same bytes.)
TEST(ServiceClaims, RoundShipsOnePayloadPerWorker) {
  constexpr int kRounds = 20;
  od::ServiceOptions opts = stall_proof(od::ServiceOptions{});
  opts.batch_window = 10s;  // only the reduce flushes, as on an idle host
  pc::run(4, [&](pc::Communicator& comm) {
    od::ServiceContext svc(comm, opts);
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    auto round = [&s] {
      const int a = s.create_full(60, 1.5);
      const int b = s.create_full(60, 0.5);
      const int c = s.axpy(2.0, a, b);
      const int d = s.block_solve(c);
      const double sum = s.reduce_sum(d);
      for (int id : {a, b, c, d}) s.free_array(id);
      return sum;
    };
    const double first = round();  // its batch has no frees before it
    auto& driver = svc.driver();
    const pc::CommStats c0 = comm.stats();
    const auto payloads0 = driver.payloads_sent();
    const auto bytes0 = driver.control_bytes_sent();
    const auto messages0 = driver.control_messages_sent();
    for (int i = 0; i < kRounds; ++i) EXPECT_EQ(round(), first);
    const pc::CommStats& c1 = comm.stats();
    EXPECT_EQ(driver.payloads_sent() - payloads0, 3u * kRounds);
    EXPECT_EQ(driver.control_messages_sent() - messages0, 27u * kRounds);
    EXPECT_EQ(driver.control_bytes_sent() - bytes0, 1296u * kRounds);
    EXPECT_EQ(c1.p2p_messages_sent - c0.p2p_messages_sent, 3u * kRounds);
    EXPECT_EQ(c1.p2p_messages_received - c0.p2p_messages_received,
              6u * kRounds);
    EXPECT_EQ(c1.retries, c0.retries);
    s.close();
    svc.shutdown();
  });
}

// A close flushes its session's backlog with the close at the tail.
TEST(ServiceClaims, SessionCloseShipsOnePayloadPerWorker) {
  od::ServiceOptions opts = stall_proof(od::ServiceOptions{});
  opts.batch_window = 10s;
  pc::run(3, [&](pc::Communicator& comm) {
    od::ServiceContext svc(comm, opts);
    if (!svc.is_driver()) {
      svc.worker_loop();
      return;
    }
    od::Session s = svc.open_session();
    (void)s.create_full(40, 1.0);
    (void)s.create_full(40, 2.0);
    EXPECT_EQ(svc.pending_messages(), 2u);
    const auto payloads0 = svc.driver().payloads_sent();
    s.close();
    EXPECT_EQ(svc.driver().payloads_sent() - payloads0, 2u);
    EXPECT_EQ(svc.pending_messages(), 0u);
    EXPECT_EQ(svc.messages_submitted(), 3u);  // the close counts
    EXPECT_EQ(svc.batches_shipped(), 1u);
    EXPECT_EQ(svc.open_sessions(), 0u);
    svc.shutdown();
  });
}

// E13's coalescing stream: 4 sessions x 8 rounds of create + free (64
// messages) on 1 driver + 3 workers. A 1-message window ships every message
// alone (64 x 3 = 192 payloads); a 64-message window ships the stream as one
// payload per worker.
TEST(ServiceClaims, CoalescingStreamPayloads) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{64}}) {
    od::ServiceOptions opts = stall_proof(od::ServiceOptions{});
    opts.batch_messages = window;
    opts.batch_window = 10s;  // only the size window fires
    std::uint64_t payloads = 0, messages = 0;
    pc::run(4, [&](pc::Communicator& comm) {
      od::ServiceContext svc(comm, opts);
      if (!svc.is_driver()) {
        svc.worker_loop();
        return;
      }
      std::vector<od::Session> sessions;
      for (int c = 0; c < 4; ++c) sessions.push_back(svc.open_session());
      const auto before = svc.driver().payloads_sent();
      for (int round = 0; round < 8; ++round) {
        for (auto& s : sessions) s.free_array(s.create_full(30, 1.0));
      }
      for (auto& s : sessions) s.flush();
      payloads = svc.driver().payloads_sent() - before;
      messages = svc.messages_submitted();
      for (auto& s : sessions) s.close();
      svc.shutdown();
    });
    EXPECT_EQ(messages, 64u) << "window " << window;
    EXPECT_EQ(payloads, window == 1 ? 192u : 3u) << "window " << window;
  }
}

// E7: CG on the g x g 2D Laplacian with the right-hand side of the all-ones
// solution, on 2 ranks. Unpreconditioned iterations about double with g;
// AMG holds them nearly flat. bench_e7_solvers reads the same counts.
TEST(SolverClaims, CgIterationsGrowWithTheGridAndAmgHoldsThemFlat) {
  struct Case {
    gl::GO grid;
    int plain;
    int amg;
  };
  for (const Case c : {Case{16, 29, 10}, Case{32, 62, 10}, Case{64, 122, 11}}) {
    int plain = -1, amg = -1;
    pc::run(2, [&](pc::Communicator& comm) {
      const auto a = gl::laplace2d(comm, c.grid, c.grid);
      const auto b = gl::rhs_for_ones(a);
      sv::KrylovOptions opt;
      opt.max_iterations = 5000;
      gl::Vector x(a.domain_map(), 0.0);
      const auto r0 = sv::cg_solve(a, b, x, opt);
      const pp::AmgPreconditioner m(a);
      gl::Vector y(a.domain_map(), 0.0);
      const auto r1 = sv::cg_solve(a, b, y, opt, &m);
      EXPECT_TRUE(r0.converged && r1.converged);
      if (comm.rank() == 0) {
        plain = r0.iterations;
        amg = r1.iterations;
      }
    });
    EXPECT_EQ(plain, c.plain) << "grid " << c.grid;
    EXPECT_EQ(amg, c.amg) << "grid " << c.grid;
  }
}

// E12: the split-phase Import behind a distributed SpMV moves one
// one-double pack each way across every rank boundary, 2·(p − 1) per
// apply, and copies none of them. Ten applies of the 1D Laplacian.
TEST(TransportClaims, SpmvHaloPacksAreMovedNotCopied) {
  struct Case {
    int ranks;
    std::uint64_t messages;
    std::uint64_t bytes;
  };
  for (const Case c : {Case{2, 20, 160}, Case{4, 60, 480}, Case{8, 140, 1120}}) {
    const pc::CommStats s = pc::run_with_stats(c.ranks, [](pc::Communicator&
                                                               comm) {
      const auto a = gl::laplace1d(tp::Map<>::uniform(comm, 4096));
      const gl::Vector x(a.domain_map(), 1.0);
      gl::Vector y(a.range_map());
      comm.barrier();
      comm.stats().reset();
      for (int rep = 0; rep < 10; ++rep) a.apply(x, y);
    });
    EXPECT_EQ(s.p2p_messages_sent, c.messages) << "p = " << c.ranks;
    EXPECT_EQ(s.p2p_bytes_sent, c.bytes) << "p = " << c.ranks;
    EXPECT_EQ(s.zero_copy_bytes, c.bytes) << "p = " << c.ranks;
    EXPECT_EQ(s.bytes_copied, 0u) << "p = " << c.ranks;
    EXPECT_EQ(s.collectives, 0u) << "p = " << c.ranks;
  }
}

// E3: `y[1:] - y[:-1]` on a block array exchanges one double per rank
// boundary, P − 1 halo messages of 8 bytes whatever n is.
TEST(TransportClaims, ShiftedDiffHaloIsIndependentOfN) {
  for (const od::index_t n : {od::index_t{1} << 16, od::index_t{1} << 18,
                              od::index_t{1} << 21}) {
    const pc::CommStats s = pc::run_with_stats(4, [n](pc::Communicator& comm) {
      const auto dist = od::Distribution::block(comm, od::Shape({n}), 0);
      const auto y = od::DistArray<double>::linspace(dist, 0.0, 1.0);
      comm.barrier();
      comm.stats().reset();
      const auto dy = od::shifted_diff(y);
      EXPECT_EQ(dy.shape().extent(0), n - 1);
    });
    EXPECT_EQ(s.p2p_messages_sent, 3u) << "n = " << n;
    EXPECT_EQ(s.p2p_bytes_sent, 24u) << "n = " << n;
    EXPECT_EQ(s.p2p_messages_received, 3u) << "n = " << n;
  }
}
