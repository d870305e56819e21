// E5 — §IV.C FFI overhead: the cost ladder of calling libm's atan2
//   direct C call < Seamless CModule dynamic call < interpreted call.
// The claim being measured: Seamless FFI gives "effortless access to
// compiled libraries" at a small constant per-call overhead.
#include <benchmark/benchmark.h>

#include <cmath>

#include "seamless/seamless.hpp"

namespace sm = pyhpc::seamless;
using sm::Value;

namespace {

void BM_DirectAtan2(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x += std::atan2(1.0, 2.0 + x * 1e-18);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DirectAtan2);

void BM_CModuleBoxedCall(benchmark::State& state) {
  // Dynamic lookup-by-name + boxed argument conversion per call.
  sm::CModule libm = sm::CModule::math();
  double x = 0.0;
  for (auto _ : state) {
    const Value args[] = {Value::of(1.0), Value::of(2.0 + x * 1e-18)};
    x += libm.call("atan2", args).as_float();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_CModuleBoxedCall);

void BM_InterpretedCallThroughFfi(benchmark::State& state) {
  // MiniPy function that calls into libm through the injected namespace —
  // full interpreter dispatch plus FFI boxing.
  sm::Engine engine(
      "def angle(y, x):\n"
      "    return atan2(y, x)\n");
  engine.bind(sm::CModule::math());
  double x = 0.0;
  for (auto _ : state) {
    x += engine
             .run_interpreted("angle",
                              {Value::of(1.0), Value::of(2.0 + x * 1e-18)})
             .as_float();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_InterpretedCallThroughFfi);

// Binding cost: dlopen + 21 dlsym bindings (paid once per module).
void BM_CModuleMathConstruction(benchmark::State& state) {
  for (auto _ : state) {
    sm::CModule libm = sm::CModule::math();
    benchmark::DoNotOptimize(libm);
  }
}
BENCHMARK(BM_CModuleMathConstruction);

}  // namespace

BENCHMARK_MAIN();
