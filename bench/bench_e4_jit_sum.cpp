// E4 — the paper's §IV.A @jit example and the "Python is too slow" claim.
//
//   @jit
//   def sum(it):
//       res = 0.0
//       for i in range(len(it)):
//           res += it[i]
//       return res
//
// Ladder: tree-walking interpreter (CPython stand-in) -> typed-register
// JIT -> static compilation -> handwritten native C++. The paper claims
// "Seamless allows compilation to fast machine code"; the expected shape is
// large interpreter/JIT gaps with the JIT approaching native.
#include <benchmark/benchmark.h>
#include <dlfcn.h>

#include <numeric>

#include "seamless/seamless.hpp"
#include "seamless/transpile.hpp"

namespace sm = pyhpc::seamless;
using sm::Value;

namespace {

const char* kSumSource =
    "def sum(it):\n"
    "    res = 0.0\n"
    "    for i in range(len(it)):\n"
    "        res += it[i]\n"
    "    return res\n";

std::shared_ptr<sm::ArrayValue> make_input(std::int64_t n) {
  std::vector<double> data(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    data[static_cast<std::size_t>(i)] = 0.5 + static_cast<double>(i % 7);
  }
  return sm::ArrayValue::owned(std::move(data));
}

void BM_SumInterpreter(benchmark::State& state) {
  sm::Engine engine(kSumSource);
  auto arr = make_input(state.range(0));
  double result = 0.0;
  for (auto _ : state) {
    result = engine.run_interpreted("sum", {Value::of(arr)}).as_float();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["result"] = result;
}
BENCHMARK(BM_SumInterpreter)->Arg(1000)->Arg(100000);

void BM_SumJit(benchmark::State& state) {
  sm::Engine engine(kSumSource);
  const auto& fn = engine.jit("sum", {sm::JitType::kArray});
  auto arr = make_input(state.range(0));
  double result = 0.0;
  for (auto _ : state) {
    result = fn.call_array_to_float(arr->span());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["result"] = result;
}
BENCHMARK(BM_SumJit)->Arg(1000)->Arg(100000)->Arg(10000000);

void BM_SumNativeCpp(benchmark::State& state) {
  auto arr = make_input(state.range(0));
  auto span = arr->span();
  double result = 0.0;
  for (auto _ : state) {
    result = std::accumulate(span.begin(), span.end(), 0.0);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["result"] = result;
}
BENCHMARK(BM_SumNativeCpp)->Arg(1000)->Arg(100000)->Arg(10000000);

// Static compilation (SIV.B): the same MiniPy sum lowered to C++, built
// into a shared library by the system compiler, and called through dlsym —
// the ahead-of-time end of the ladder.
void BM_SumStaticCompiled(benchmark::State& state) {
  static double (*fn)(double*, std::int64_t) = [] {
    auto mod = sm::parse(kSumSource);
    const std::string lib = "/tmp/pyhpc_bench_sum.so";
    sm::compile_to_library(
        sm::emit_cpp(mod, "sum", {sm::JitType::kArray}, "bench_sum"), lib);
    void* handle = ::dlopen(lib.c_str(), RTLD_NOW | RTLD_LOCAL);
    return reinterpret_cast<double (*)(double*, std::int64_t)>(
        ::dlsym(handle, "bench_sum"));
  }();
  auto arr = make_input(state.range(0));
  double result = 0.0;
  for (auto _ : state) {
    result = fn(arr->data, static_cast<std::int64_t>(arr->size));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["result"] = result;
}
BENCHMARK(BM_SumStaticCompiled)->Arg(1000)->Arg(100000)->Arg(10000000);

// One-time compilation overhead (what @jit pays at first call).
void BM_JitCompileCost(benchmark::State& state) {
  sm::Module mod = sm::parse(kSumSource);
  for (auto _ : state) {
    auto fn = sm::jit_compile(mod, "sum", {sm::JitType::kArray});
    benchmark::DoNotOptimize(fn);
  }
}
BENCHMARK(BM_JitCompileCost);

}  // namespace

BENCHMARK_MAIN();
