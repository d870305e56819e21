#include "seamless/ffi.hpp"

#include <dlfcn.h>

namespace pyhpc::seamless {

CModule::~CModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

CModule::CModule(CModule&& other) noexcept
    : name_(std::move(other.name_)),
      handle_(other.handle_),
      bindings_(std::move(other.bindings_)) {
  other.handle_ = nullptr;
}

CModule& CModule::operator=(CModule&& other) noexcept {
  if (this != &other) {
    if (handle_ != nullptr) ::dlclose(handle_);
    name_ = std::move(other.name_);
    handle_ = other.handle_;
    bindings_ = std::move(other.bindings_);
    other.handle_ = nullptr;
  }
  return *this;
}

CModule CModule::load_library(const std::string& short_name) {
  CModule module(short_name);
  // ctypes-style candidates: lib<name>.so then versioned fallbacks.
  const std::vector<std::string> candidates = {
      "lib" + short_name + ".so",
      "lib" + short_name + ".so.6",
      short_name,
  };
  for (const auto& candidate : candidates) {
    module.handle_ = ::dlopen(candidate.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (module.handle_ != nullptr) return module;
  }
  throw RuntimeFault("CModule: cannot load library '" + short_name + "': " +
                     std::string(::dlerror()));
}

void* CModule::resolve_symbol(const std::string& symbol) const {
  require<RuntimeFault>(handle_ != nullptr,
                        "CModule: def_external needs a loaded library");
  ::dlerror();  // clear
  void* addr = ::dlsym(handle_, symbol.c_str());
  const char* err = ::dlerror();
  if (err != nullptr || addr == nullptr) {
    throw RuntimeFault("CModule: symbol '" + symbol + "' not found in lib" +
                       name_);
  }
  return addr;
}

std::vector<std::string> CModule::function_names() const {
  std::vector<std::string> out;
  out.reserve(bindings_.size());
  for (const auto& [k, v] : bindings_) out.push_back(k);
  return out;
}

std::size_t CModule::arity(const std::string& fn_name) const {
  auto it = bindings_.find(fn_name);
  require<RuntimeFault>(it != bindings_.end(),
                        "CModule '", name_, "' has no function '", fn_name,
                        "'");
  return it->second.arity;
}

Value CModule::call(const std::string& fn_name,
                    std::span<const Value> args) const {
  auto it = bindings_.find(fn_name);
  require<RuntimeFault>(it != bindings_.end(),
                        "CModule '", name_, "' has no function '", fn_name,
                        "'");
  return it->second.fn(args);
}

void CModule::install_into(Interpreter& interp) const {
  for (const auto& [fn_name, binding] : bindings_) {
    auto fn = binding.fn;
    interp.register_builtin(fn_name, [fn](std::span<const Value> args) {
      return fn(args);
    });
  }
}

CModule CModule::math() {
  CModule m = load_library("m");
  // The functions math.h declares, bound through the live libm symbols —
  // "After instantiating the cmath class with a specific library, all of
  // the math library is available to use."
  m.def_external<double(double)>("sin");
  m.def_external<double(double)>("cos");
  m.def_external<double(double)>("tan");
  m.def_external<double(double)>("asin");
  m.def_external<double(double)>("acos");
  m.def_external<double(double)>("atan");
  m.def_external<double(double, double)>("atan2");
  m.def_external<double(double)>("exp");
  m.def_external<double(double)>("log");
  m.def_external<double(double)>("log2");
  m.def_external<double(double)>("log10");
  m.def_external<double(double)>("sqrt");
  m.def_external<double(double)>("cbrt");
  m.def_external<double(double, double)>("pow");
  m.def_external<double(double, double)>("fmod");
  m.def_external<double(double, double)>("hypot");
  m.def_external<double(double)>("floor");
  m.def_external<double(double)>("ceil");
  m.def_external<double(double)>("fabs");
  m.def_external<double(double)>("tgamma");
  m.def_external<double(double)>("erf");
  return m;
}

}  // namespace pyhpc::seamless
