#include "odin/local.hpp"

namespace pyhpc::odin {

LocalRegistry& LocalRegistry::instance() {
  static LocalRegistry registry;
  return registry;
}

void LocalRegistry::register_function(const std::string& name,
                                      LocalFunction fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fns_[name] = std::move(fn);
}

bool LocalRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fns_.count(name) > 0;
}

LocalFunction LocalRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fns_.find(name);
  require(it != fns_.end(), "LocalRegistry: no local function '", name, "'");
  return it->second;
}

std::vector<std::string> LocalRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(fns_.size());
  for (const auto& [k, v] : fns_) out.push_back(k);
  return out;
}

void LocalRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  fns_.clear();
}

}  // namespace pyhpc::odin
