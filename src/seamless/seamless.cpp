#include "seamless/seamless.hpp"

#include <mutex>

#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace pyhpc::seamless {

Engine::Engine(const std::string& source)
    : module_(parse(source)), interp_(module_) {}

void Engine::bind(const CModule& module) { module.install_into(interp_); }

Value Engine::run(const std::string& name, std::vector<Value> args) {
  if (module_.function(name).has_decorator("jit")) {
    try {
      return run_jit(name, args);
    } catch (const NotJittable&) {
      // Outside the typed subset: the interpreter runs it.
    }
  }
  return run_interpreted(name, std::move(args));
}

Value Engine::run_jit(const std::string& name, std::vector<Value> args) {
  std::vector<JitType> types;
  types.reserve(args.size());
  for (const auto& a : args) types.push_back(jit_type_of(a));
  const JitFunction& fn = jit(name, types);
  obs::Span span("jit.exec", "seamless");
  if (span.active()) span.arg("nargs", static_cast<std::int64_t>(args.size()));
  return fn.call(args);
}

const JitFunction& Engine::jit(const std::string& name,
                               const std::vector<JitType>& param_types) {
  std::string key = name;
  for (auto t : param_types) {
    key += '/';
    key += jit_type_name(t);
  }
  auto it = jit_cache_.find(key);
  if (it == jit_cache_.end()) {
    obs::Span span("jit.compile", "seamless");
    if (span.active()) {
      span.arg("nparams", static_cast<std::int64_t>(param_types.size()));
    }
    it = jit_cache_
             .emplace(key, std::make_unique<JitFunction>(
                               jit_compile(module_, name, param_types)))
             .first;
  }
  return *it->second;
}

namespace numpy {

const std::string& source() {
  // The algorithm-specification side of Seamless: plain Python-subset code
  // that C++ callers use through the adapters below.
  static const std::string kSource = R"(
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res

def min_val(it):
    res = it[0]
    for i in range(1, len(it)):
        if it[i] < res:
            res = it[i]
    return res

def max_val(it):
    res = it[0]
    for i in range(1, len(it)):
        if it[i] > res:
            res = it[i]
    return res

def mean(it):
    return sum(it) / len(it)

def dot(a, b):
    res = 0.0
    for i in range(len(a)):
        res += a[i] * b[i]
    return res
)";
  return kSource;
}

namespace {

// Shared engine; compiled functions are cached inside it.
Engine& engine() {
  static Engine e(source());
  return e;
}
std::mutex& engine_mu() {
  static std::mutex mu;
  return mu;
}

double run_array_fn(const std::string& name, std::span<const double> values) {
  std::lock_guard<std::mutex> lock(engine_mu());
  const JitFunction& fn = engine().jit(name, {JitType::kArray});
  // The JIT reads through a span; it never writes for these functions, so
  // the const_cast is confined to this adapter.
  return fn.call_array_to_float(
      std::span<double>(const_cast<double*>(values.data()), values.size()));
}

}  // namespace

double sum(std::span<const double> values) {
  return run_array_fn("sum", values);
}

double sum(std::span<const int> values) {
  // Integer input: converted at the boundary, as any real binding layer
  // would (the paper calls sum on an int[100]).
  std::vector<double> converted(values.begin(), values.end());
  return run_array_fn("sum", converted);
}

double min(std::span<const double> values) {
  require<RuntimeFault>(!values.empty(), "numpy::min: empty input");
  return run_array_fn("min_val", values);
}

double max(std::span<const double> values) {
  require<RuntimeFault>(!values.empty(), "numpy::max: empty input");
  return run_array_fn("max_val", values);
}

double mean(std::span<const double> values) {
  require<RuntimeFault>(!values.empty(), "numpy::mean: empty input");
  // `mean` is MiniPy code calling MiniPy `sum` — compiled as one unit now
  // that the JIT supports module-function calls.
  return run_array_fn("mean", values);
}

double dot(std::span<const double> a, std::span<const double> b) {
  require<RuntimeFault>(a.size() == b.size(), "numpy::dot: size mismatch");
  std::lock_guard<std::mutex> lock(engine_mu());
  const JitFunction& fn =
      engine().jit("dot", {JitType::kArray, JitType::kArray});
  auto va = Value::of(ArrayValue::view(const_cast<double*>(a.data()), a.size()));
  auto vb = Value::of(ArrayValue::view(const_cast<double*>(b.data()), b.size()));
  const Value args[] = {va, vb};
  return fn.call(std::span<const Value>(args, 2)).to_double();
}

}  // namespace numpy

}  // namespace pyhpc::seamless
