// Tests for the JIT tier and the @jit dispatch: exact semantic equivalence
// with the interpreter (including a randomized-program sweep), JIT type
// discovery, NotJittable fallbacks, FFI, and the embed API.
#include <gtest/gtest.h>

#include <cmath>

#include "seamless/seamless.hpp"
#include "util/random.hpp"

namespace sm = pyhpc::seamless;
using sm::Value;

namespace {

// Runs a function through the interpreter and the JIT and checks they
// agree; returns the interpreter's result. `jittable` = false skips the JIT.
Value run_all_tiers(const std::string& source, const std::string& fn,
                    std::vector<Value> args, bool jittable = true) {
  sm::Engine engine(source);
  Value vi = engine.run_interpreted(fn, args);
  if (jittable) {
    Value vj = engine.run_jit(fn, args);
    // JIT promotes bools to ints in arithmetic identically; compare
    // numerically for numbers, repr otherwise.
    if (vi.is_numeric() && vj.is_numeric()) {
      EXPECT_DOUBLE_EQ(vi.to_double(), vj.to_double())
          << fn << ": interpreter vs JIT";
      EXPECT_EQ(vi.is_float(), vj.is_float()) << fn << ": type drift";
    } else {
      EXPECT_EQ(vi.repr(), vj.repr());
    }
  }
  return vi;
}

}  // namespace

TEST(Tiers, PaperSumAgreesEverywhere) {
  const std::string src =
      "def sum(it):\n"
      "    res = 0.0\n"
      "    for i in range(len(it)):\n"
      "        res += it[i]\n"
      "    return res\n";
  auto arr = sm::ArrayValue::owned({0.5, 1.5, 2.0, -1.0});
  Value v = run_all_tiers(src, "sum", {Value::of(arr)});
  EXPECT_DOUBLE_EQ(v.as_float(), 3.0);
}

TEST(Tiers, IntegerAlgorithms) {
  const std::string gcd =
      "def gcd(a, b):\n"
      "    while b != 0:\n"
      "        t = b\n"
      "        b = a % b\n"
      "        a = t\n"
      "    return a\n";
  EXPECT_EQ(run_all_tiers(gcd, "gcd", {Value::of(252), Value::of(105)}).as_int(),
            21);

  const std::string collatz =
      "def steps(n):\n"
      "    count = 0\n"
      "    while n != 1:\n"
      "        if n % 2 == 0:\n"
      "            n = n // 2\n"
      "        else:\n"
      "            n = 3 * n + 1\n"
      "        count += 1\n"
      "    return count\n";
  EXPECT_EQ(run_all_tiers(collatz, "steps", {Value::of(27)}).as_int(), 111);
}

TEST(Tiers, FloatKernelsAgree) {
  const std::string src =
      "def horner(xs, x):\n"
      "    acc = 0.0\n"
      "    for i in range(len(xs)):\n"
      "        acc = acc * x + xs[i]\n"
      "    return acc\n";
  auto coeffs = sm::ArrayValue::owned({2.0, -1.0, 0.5});
  Value v = run_all_tiers(src, "horner", {Value::of(coeffs), Value::of(3.0)});
  EXPECT_DOUBLE_EQ(v.as_float(), 2.0 * 9 - 3 + 0.5);
}

TEST(Tiers, ArrayWritesVisibleToCaller) {
  const std::string src =
      "def scale(a, s):\n"
      "    for i in range(len(a)):\n"
      "        a[i] = a[i] * s\n"
      "    return 0\n";
  for (const bool jit : {false, true}) {
    sm::Engine engine(src);
    auto arr = sm::ArrayValue::owned({1.0, 2.0, 3.0});
    std::vector<Value> args{Value::of(arr), Value::of(2.0)};
    if (jit) {
      engine.run_jit("scale", args);
    } else {
      engine.run_interpreted("scale", args);
    }
    EXPECT_DOUBLE_EQ(arr->data[2], 6.0) << (jit ? "jit" : "interpreted");
  }
}

TEST(Tiers, BreakContinueNestedLoops) {
  const std::string src =
      "def f(n):\n"
      "    total = 0\n"
      "    for i in range(n):\n"
      "        for j in range(n):\n"
      "            if j > i:\n"
      "                break\n"
      "            if j == 1:\n"
      "                continue\n"
      "            total += 10 * i + j\n"
      "    return total\n";
  Value v = run_all_tiers(src, "f", {Value::of(5)});
  // Serial reference.
  int want = 0;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (j > i) break;
      if (j == 1) continue;
      want += 10 * i + j;
    }
  }
  EXPECT_EQ(v.as_int(), want);
}

TEST(Tiers, RandomizedProgramEquivalence) {
  // Property sweep: generated straight-line integer programs with loops and
  // conditionals must agree across both tiers.
  pyhpc::util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t c1 = rng.next_int(1, 9);
    const std::int64_t c2 = rng.next_int(1, 9);
    const std::int64_t c3 = rng.next_int(2, 5);
    const std::int64_t mod = rng.next_int(2, 7);
    std::string src =
        "def f(a, b):\n"
        "    x = a * " + std::to_string(c1) + " + b\n"
        "    y = 0\n"
        "    for i in range(" + std::to_string(c3) + ", x % 17 + " +
        std::to_string(c2) + "):\n"
        "        if i % " + std::to_string(mod) + " == 0:\n"
        "            y += i * 2\n"
        "        else:\n"
        "            y -= i\n"
        "    while y > 100:\n"
        "        y = y - 7\n"
        "    return y * x\n";
    const auto a = rng.next_int(-20, 20);
    const auto b = rng.next_int(-20, 20);
    run_all_tiers(src, "f", {Value::of(a), Value::of(b)});
  }
}

// ---------------------------------------------------------------------------
// Boxed-tier edge cases
// ---------------------------------------------------------------------------

TEST(Vm, UndefinedLocalFaultsLikeInterpreter) {
  const std::string src =
      "def f(flag):\n"
      "    if flag:\n"
      "        x = 1\n"
      "    return x\n";
  sm::Engine engine(src);
  EXPECT_EQ(engine.run_interpreted("f", {Value::of(true)}).as_int(), 1);
  EXPECT_THROW(engine.run_interpreted("f", {Value::of(false)}),
               pyhpc::RuntimeFault);
}

TEST(Vm, LoopVarReassignmentDoesNotChangeIteration) {
  const std::string src =
      "def f():\n"
      "    total = 0\n"
      "    for i in range(5):\n"
      "        i = 100\n"
      "        total += 1\n"
      "    return total\n";
  sm::Engine engine(src);
  EXPECT_EQ(engine.run_interpreted("f", {}).as_int(), 5);
}

// ---------------------------------------------------------------------------
// JIT specifics
// ---------------------------------------------------------------------------

TEST(Jit, TypeDiscoveryMatchesPaperQuote) {
  // "type res as a floating point variable and ... i as an integer type".
  sm::Engine engine(sm::numpy::source());
  const auto& fn = engine.jit("sum", {sm::JitType::kArray});
  EXPECT_EQ(fn.return_type(), sm::JitType::kFloat);
  EXPECT_EQ(fn.param_types()[0], sm::JitType::kArray);
  EXPECT_GT(fn.code_size(), 0u);
}

TEST(Jit, SignatureCachePerTypes) {
  sm::Engine engine(
      "def add(a, b):\n"
      "    return a + b\n");
  EXPECT_EQ(engine.run_jit("add", {Value::of(2), Value::of(3)}).as_int(), 5);
  EXPECT_EQ(engine.jit_cache_size(), 1u);
  EXPECT_EQ(engine.run_jit("add", {Value::of(4), Value::of(5)}).as_int(), 9);
  EXPECT_EQ(engine.jit_cache_size(), 1u);  // same signature reused
  EXPECT_DOUBLE_EQ(
      engine.run_jit("add", {Value::of(2.5), Value::of(3.0)}).as_float(), 5.5);
  EXPECT_EQ(engine.jit_cache_size(), 2u);  // float signature added
}

TEST(Jit, NotJittableFallbacks) {
  // Lists are dynamic -> NotJittable; the interpreter still handles it.
  const std::string src =
      "def f(n):\n"
      "    xs = list(n)\n"
      "    return len(xs)\n";
  sm::Engine engine(src);
  EXPECT_THROW(engine.run_jit("f", {Value::of(3)}), sm::NotJittable);
  EXPECT_EQ(engine.run_interpreted("f", {Value::of(3)}).as_int(), 3);

  // Polymorphic variable -> NotJittable.
  sm::Engine e2(
      "def g(flag):\n"
      "    if flag:\n"
      "        x = 1\n"
      "    else:\n"
      "        x = 2.5\n"
      "    return x\n");
  // int/float joins to float - this IS jittable with widening.
  EXPECT_DOUBLE_EQ(e2.run_jit("g", {Value::of(false)}).as_float(), 2.5);
  EXPECT_DOUBLE_EQ(e2.run_jit("g", {Value::of(true)}).as_float(), 1.0);

  // Module-function calls compile (inlined per-signature callees); truly
  // unknown names stay NotJittable.
  sm::Engine e3(
      "def h(x):\n"
      "    return helper(x)\n"
      "def helper(x):\n"
      "    return x\n");
  EXPECT_EQ(e3.run_jit("h", {Value::of(1)}).as_int(), 1);
  sm::Engine e4(
      "def h(x):\n"
      "    return ghost(x)\n");
  EXPECT_THROW(e4.run_jit("h", {Value::of(1)}), sm::NotJittable);
}

TEST(Jit, RuntimeChecksSurvive) {
  sm::Engine engine(
      "def f(a, i):\n"
      "    return a[i]\n");
  auto arr = sm::ArrayValue::owned({1.0, 2.0});
  EXPECT_DOUBLE_EQ(
      engine.run_jit("f", {Value::of(arr), Value::of(-1)}).as_float(), 2.0);
  EXPECT_THROW(engine.run_jit("f", {Value::of(arr), Value::of(5)}),
               pyhpc::RuntimeFault);

  sm::Engine e2(
      "def g(a, b):\n"
      "    return a // b\n");
  EXPECT_THROW(e2.run_jit("g", {Value::of(1), Value::of(0)}),
               pyhpc::RuntimeFault);
}

TEST(Jit, FastArrayEntryPoint) {
  sm::Engine engine(sm::numpy::source());
  const auto& fn = engine.jit("sum", {sm::JitType::kArray});
  std::vector<double> data{1.0, 2.0, 3.5};
  EXPECT_DOUBLE_EQ(fn.call_array_to_float(data), 6.5);
}

// ---------------------------------------------------------------------------
// FFI (§IV.C)
// ---------------------------------------------------------------------------

TEST(Ffi, PaperAtan2Example) {
  // libm = cmath('m'); libm.atan2(1.0, 2.0)
  sm::CModule libm = sm::CModule::math();
  const Value args[] = {Value::of(1.0), Value::of(2.0)};
  const Value result = libm.call("atan2", args);
  EXPECT_DOUBLE_EQ(result.as_float(), std::atan2(1.0, 2.0));
  // "all of the math library is available": spot-check a few more.
  EXPECT_GT(libm.function_names().size(), 15u);
  const Value one[] = {Value::of(0.25)};
  EXPECT_DOUBLE_EQ(libm.call("sqrt", one).as_float(), 0.5);
  EXPECT_EQ(libm.arity("atan2"), 2u);
}

TEST(Ffi, SignatureAutoDiscoveryFromPointerType) {
  sm::CModule mod("custom");
  mod.def("hypot3", +[](double x, double y) { return std::hypot(x, y); });
  mod.def("addi", +[](int a, std::int64_t b) {
    return static_cast<std::int64_t>(a) + b;
  });
  const Value fargs[] = {Value::of(3.0), Value::of(4.0)};
  EXPECT_DOUBLE_EQ(mod.call("hypot3", fargs).as_float(), 5.0);
  const Value iargs[] = {Value::of(2), Value::of(40)};
  EXPECT_EQ(mod.call("addi", iargs).as_int(), 42);
  // Arity is enforced.
  const Value bad[] = {Value::of(1.0)};
  EXPECT_THROW(mod.call("hypot3", bad), pyhpc::RuntimeFault);
  EXPECT_THROW(mod.call("ghost", fargs), pyhpc::RuntimeFault);
}

TEST(Ffi, MissingLibraryOrSymbolThrows) {
  EXPECT_THROW(sm::CModule::load_library("definitely_not_a_library_xyz"),
               pyhpc::RuntimeFault);
  sm::CModule libm = sm::CModule::load_library("m");
  EXPECT_THROW(libm.def_external<double(double)>("no_such_symbol_abc"),
               pyhpc::RuntimeFault);
}

TEST(Ffi, InstallIntoInterpreterAndVm) {
  // MiniPy code calling straight into libm through the injected namespace.
  const std::string src =
      "def angle(y, x):\n"
      "    return atan2(y, x)\n";
  sm::Engine engine(src);
  engine.bind(sm::CModule::math());
  const double want = std::atan2(1.0, 1.0);
  EXPECT_DOUBLE_EQ(
      engine.run_interpreted("angle", {Value::of(1.0), Value::of(1.0)}).as_float(),
      want);

  // atan2 is no JIT intrinsic, so @jit code calling it leaves the typed
  // subset and Engine::run falls back to the interpreter, which has the
  // binding.
  sm::Engine jitted("@jit\n" + src);
  jitted.bind(sm::CModule::math());
  EXPECT_DOUBLE_EQ(
      jitted.run("angle", {Value::of(1.0), Value::of(1.0)}).as_float(), want);
  EXPECT_EQ(jitted.jit_cache_size(), 0u);
}

// ---------------------------------------------------------------------------
// Embed API (§IV.D)
// ---------------------------------------------------------------------------

TEST(Embed, PaperListingWorksVerbatim) {
  // int arr[100]; seamless::numpy::sum(arr);
  int arr[100];
  for (int i = 0; i < 100; ++i) arr[i] = i;
  EXPECT_DOUBLE_EQ(pyhpc::seamless::numpy::sum(arr), 4950.0);

  // std::vector<double> darr(100); seamless::numpy::sum(darr);
  std::vector<double> darr(100);
  for (int i = 0; i < 100; ++i) darr[static_cast<std::size_t>(i)] = 0.5 * i;
  EXPECT_DOUBLE_EQ(pyhpc::seamless::numpy::sum(darr), 0.5 * 4950.0);
}

TEST(Embed, MinMaxMeanDot) {
  std::vector<double> v{3.0, -1.0, 4.0, 1.5};
  namespace np = pyhpc::seamless::numpy;
  EXPECT_DOUBLE_EQ(np::min(v), -1.0);
  EXPECT_DOUBLE_EQ(np::max(v), 4.0);
  EXPECT_DOUBLE_EQ(np::mean(v), 7.5 / 4.0);
  std::vector<double> w{1.0, 1.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(np::dot(v, w), 3.0 - 1.0 + 4.0 + 3.0);
  EXPECT_THROW(np::dot(v, std::vector<double>{1.0}), pyhpc::RuntimeFault);
}

TEST(Embed, SourceIsPythonSubset) {
  // The embed functions really are MiniPy code.
  EXPECT_NE(pyhpc::seamless::numpy::source().find("def sum(it):"),
            std::string::npos);
  // And the same source runs in the plain interpreter too.
  sm::Engine engine(pyhpc::seamless::numpy::source());
  auto arr = sm::ArrayValue::owned({2.0, 3.0});
  EXPECT_DOUBLE_EQ(
      engine.run_interpreted("sum", {Value::of(arr)}).as_float(), 5.0);
}
