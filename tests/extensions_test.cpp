// Tests for the extension features: @jit decorator dispatch, the ODIN
// conform-strategy scope, and Isorropia matrix rebalancing.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstdio>

#include "comm/runner.hpp"
#include "galeri/gallery.hpp"
#include "isorropia/partition.hpp"
#include "odin/ufunc.hpp"
#include "seamless/seamless.hpp"
#include "seamless/transpile.hpp"
#include "solvers/krylov.hpp"

namespace pc = pyhpc::comm;
namespace od = pyhpc::odin;
namespace is = pyhpc::isorropia;
namespace gl = pyhpc::galeri;
namespace sm = pyhpc::seamless;
using sm::Value;
using Arr = od::DistArray<double>;

// ---------------------------------------------------------------------------
// @jit decorator (the paper's exact surface syntax, §IV.A)
// ---------------------------------------------------------------------------

TEST(JitDecorator, PaperSyntaxParses) {
  auto mod = sm::parse(
      "@jit\n"
      "def sum(it):\n"
      "    res = 0.0\n"
      "    for i in range(len(it)):\n"
      "        res += it[i]\n"
      "    return res\n");
  EXPECT_TRUE(mod.function("sum").has_decorator("jit"));
  EXPECT_FALSE(mod.function("sum").has_decorator("cached"));
}

TEST(JitDecorator, RunDispatchesDecoratedFunctionsToJit) {
  sm::Engine engine(
      "@jit\n"
      "def fast(a, b):\n"
      "    return a * b + 1\n"
      "def slow(a, b):\n"
      "    return a * b + 1\n");
  EXPECT_EQ(engine.run("fast", {Value::of(6), Value::of(7)}).as_int(), 43);
  EXPECT_EQ(engine.jit_cache_size(), 1u);  // fast was compiled
  EXPECT_EQ(engine.run("slow", {Value::of(6), Value::of(7)}).as_int(), 43);
  EXPECT_EQ(engine.jit_cache_size(), 1u);  // slow stayed interpreted
}

TEST(JitDecorator, FallsBackToVmOutsideTypedSubset) {
  // The paper's "staged and incremental approach": @jit code using dynamic
  // features still runs (through the interpreter) instead of failing.
  sm::Engine engine(
      "@jit\n"
      "def dyn(n):\n"
      "    xs = list(n)\n"
      "    return len(xs)\n");
  EXPECT_EQ(engine.run("dyn", {Value::of(4)}).as_int(), 4);
  EXPECT_EQ(engine.jit_cache_size(), 0u);  // nothing compiled
  EXPECT_EQ(engine.run("dyn", {Value::of(4)}).repr(),
            engine.run_interpreted("dyn", {Value::of(4)}).repr());
}

TEST(JitDecorator, MultipleDecoratorsAccepted) {
  auto mod = sm::parse(
      "@cached\n"
      "@jit\n"
      "def f(x):\n"
      "    return x + 1\n");
  EXPECT_TRUE(mod.function("f").has_decorator("jit"));
  EXPECT_TRUE(mod.function("f").has_decorator("cached"));
}

TEST(JitDecorator, DecoratorSyntaxErrors) {
  EXPECT_THROW(sm::parse("@\ndef f():\n    pass\n"), pyhpc::CompileError);
  EXPECT_THROW(sm::parse("@jit x = 1\n"), pyhpc::CompileError);
}

// ---------------------------------------------------------------------------
// ConformStrategyScope (§III.D context-manager analogue)
// ---------------------------------------------------------------------------

TEST(ConformScope, OverridesOperatorStrategy) {
  pc::run(3, [](pc::Communicator& comm) {
    const od::index_t n = 24;
    auto bdist = od::Distribution::block(comm, od::Shape({n}), 0);
    auto cdist = od::Distribution::cyclic(comm, od::Shape({n}), 0);
    auto a = Arr::arange(bdist, 0.0, 1.0);
    auto b = Arr::arange(cdist, 0.0, 2.0);

    EXPECT_EQ(od::default_conform_strategy(), od::ConformStrategy::kAuto);
    {
      od::ConformStrategyScope scope(od::ConformStrategy::kLeft);
      EXPECT_EQ(od::default_conform_strategy(), od::ConformStrategy::kLeft);
      auto c = a + b;  // left operand moves -> result follows b's layout
      EXPECT_TRUE(c.dist().conformable(b.dist()));
      {
        od::ConformStrategyScope inner(od::ConformStrategy::kRight);
        auto d = a + b;  // right operand moves -> result follows a's layout
        EXPECT_TRUE(d.dist().conformable(a.dist()));
      }
      EXPECT_EQ(od::default_conform_strategy(), od::ConformStrategy::kLeft);
    }
    EXPECT_EQ(od::default_conform_strategy(), od::ConformStrategy::kAuto);

    // Values are identical whichever way the layout went.
    od::ConformStrategyScope scope(od::ConformStrategy::kRight);
    auto c = a + b;
    auto cf = c.gather();
    for (od::index_t g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(cf[static_cast<std::size_t>(g)],
                       3.0 * static_cast<double>(g));
    }
  });
}

// ---------------------------------------------------------------------------
// rebalance_matrix
// ---------------------------------------------------------------------------

class RebalanceMatrixSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, RebalanceMatrixSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST_P(RebalanceMatrixSweep, SpmvUnchangedAfterRebalance) {
  pc::run(GetParam(), [](pc::Communicator& comm) {
    const std::int64_t n = 30;
    auto a = gl::tridiag(gl::Map::uniform(comm, n), -1.0, 3.0, -0.5);
    // Move to a deliberately skewed layout.
    auto skewed = gl::Map::from_local_sizes(
        comm, comm.rank() == 0
                  ? static_cast<std::int32_t>(n) - 2 * (comm.size() - 1)
                  : 2);
    auto b = is::rebalance_matrix(a, skewed);
    EXPECT_EQ(b.num_global_entries(), a.num_global_entries());

    gl::Vector x(a.domain_map());
    x.randomize(11);
    gl::Vector y(a.range_map());
    a.apply(x, y);

    auto xb = is::rebalance(x, skewed);
    gl::Vector yb(skewed);
    b.apply(xb, yb);

    auto want = y.gather_global();
    auto got = yb.gather_global();
    for (std::int64_t g = 0; g < n; ++g) {
      EXPECT_NEAR(got[static_cast<std::size_t>(g)],
                  want[static_cast<std::size_t>(g)], 1e-13);
    }
  });
}

TEST(RebalanceMatrix, EndToEndWithPartitioner) {
  pc::run(3, [](pc::Communicator& comm) {
    // Build a matrix with wildly uneven row work, partition by nonzeros,
    // rebalance, and verify the solve still works on the new layout.
    const std::int64_t n = 48;
    auto map = gl::Map::uniform(comm, n);
    gl::Matrix a(map);
    for (std::int32_t i = 0; i < map.num_local(); ++i) {
      const std::int64_t g = map.local_to_global(i);
      a.insert_global_value(g, g, 4.0);
      // First rows are dense-ish: extra off-diagonals.
      const std::int64_t extras = g < n / 4 ? 6 : 1;
      for (std::int64_t k = 1; k <= extras; ++k) {
        const std::int64_t c = (g + k * 3) % n;
        if (c != g) a.insert_global_value(g, c, -0.1);
      }
    }
    a.fill_complete();

    auto newmap = is::partition_by_nonzeros(a);
    auto balanced = is::rebalance_matrix(a, newmap);
    auto rhs = gl::rhs_for_ones(balanced);
    gl::Vector x(newmap, 0.0);
    auto res = pyhpc::solvers::gmres_solve(balanced, rhs, x);
    EXPECT_TRUE(res.converged) << res.summary();
    gl::Vector err(newmap, 1.0);
    err.update(1.0, x, -1.0);
    EXPECT_LT(err.norm2(), 1e-5);
  });
}

// ---------------------------------------------------------------------------
// JIT module-function calls (enables composed kernels like mean = sum/len)
// ---------------------------------------------------------------------------

TEST(JitCalls, ModuleFunctionCallsCompile) {
  sm::Engine engine(
      "def square(x):\n"
      "    return x * x\n"
      "def hyp(a, b):\n"
      "    return sqrt(square(a) + square(b))\n");
  EXPECT_DOUBLE_EQ(
      engine.run_jit("hyp", {Value::of(3.0), Value::of(4.0)}).as_float(), 5.0);
  // Interpreter agreement.
  EXPECT_DOUBLE_EQ(
      engine.run_interpreted("hyp", {Value::of(3.0), Value::of(4.0)})
          .as_float(),
      5.0);
}

TEST(JitCalls, MeanComposedFromSumIsJittable) {
  sm::Engine engine(
      "def sum(it):\n"
      "    res = 0.0\n"
      "    for i in range(len(it)):\n"
      "        res += it[i]\n"
      "    return res\n"
      "def mean(it):\n"
      "    return sum(it) / len(it)\n");
  auto arr = sm::ArrayValue::owned({1.0, 2.0, 3.0, 10.0});
  EXPECT_DOUBLE_EQ(engine.run_jit("mean", {Value::of(arr)}).as_float(), 4.0);
}

TEST(JitCalls, PerSignatureCalleeSpecialization) {
  sm::Engine engine(
      "def twice(x):\n"
      "    return x + x\n"
      "def f(a, b):\n"
      "    return twice(a) + twice(b)\n");
  // int and float args produce two callee specializations under one parent.
  EXPECT_DOUBLE_EQ(
      engine.run_jit("f", {Value::of(2), Value::of(1.5)}).as_float(), 7.0);
}

TEST(JitCalls, RecursionFallsOutOfTypedSubset) {
  sm::Engine engine(
      "@jit\n"
      "def fib(n):\n"
      "    if n < 2:\n"
      "        return n\n"
      "    return fib(n - 1) + fib(n - 2)\n");
  EXPECT_THROW(engine.run_jit("fib", {Value::of(10)}), sm::NotJittable);
  // The decorator dispatch falls back and still answers correctly.
  EXPECT_EQ(engine.run("fib", {Value::of(10)}).as_int(), 55);
}

TEST(JitCalls, StaticCompilationEmitsCallees) {
  auto mod = sm::parse(
      "def square(x):\n"
      "    return x * x\n"
      "def poly(x):\n"
      "    return square(x) + 2.0 * x + 1.0\n");
  const std::string cpp =
      sm::emit_cpp(mod, "poly", {sm::JitType::kFloat}, "poly");
  EXPECT_NE(cpp.find("static double poly_c0"), std::string::npos) << cpp;
  const std::string lib = "/tmp/pyhpc_callee_emit.so";
  sm::compile_to_library(cpp, lib);
  void* handle = ::dlopen(lib.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(handle, nullptr);
  auto* poly = reinterpret_cast<double (*)(double)>(::dlsym(handle, "poly"));
  ASSERT_NE(poly, nullptr);
  EXPECT_DOUBLE_EQ(poly(3.0), 16.0);  // (x+1)^2
  ::dlclose(handle);
  std::remove(lib.c_str());
  std::remove((lib + ".cpp").c_str());
  std::remove((lib + ".log").c_str());
}
