// ParameterList: the Teuchos-style hierarchical, typed option dictionary
// used to configure solvers and preconditioners (Table I: "Teuchos —
// general tools (parameter lists, ... XML I/O ...)").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace pyhpc::teuchos {

class ParameterList;

/// The value types a parameter may hold. Sublists make the structure
/// hierarchical ("Solver" -> "GMRES" -> restart length, ...).
using ParameterValue =
    std::variant<bool, std::int64_t, double, std::string,
                 std::vector<std::int64_t>, std::vector<double>,
                 std::shared_ptr<ParameterList>>;

class ParameterList {
 public:
  ParameterList() = default;
  explicit ParameterList(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Sets or replaces a parameter. Integral/floating literals are
  /// normalized to int64/double; string literals to std::string.
  void set(const std::string& key, bool v) { params_[key] = v; }
  void set(const std::string& key, int v) {
    params_[key] = static_cast<std::int64_t>(v);
  }
  void set(const std::string& key, std::int64_t v) { params_[key] = v; }
  void set(const std::string& key, double v) { params_[key] = v; }
  void set(const std::string& key, const char* v) {
    params_[key] = std::string(v);
  }
  void set(const std::string& key, std::string v) {
    params_[key] = std::move(v);
  }
  void set(const std::string& key, std::vector<std::int64_t> v) {
    params_[key] = std::move(v);
  }
  void set(const std::string& key, std::vector<double> v) {
    params_[key] = std::move(v);
  }

  bool has(const std::string& key) const { return params_.count(key) > 0; }

  /// Typed access; throws InvalidArgument when missing or mistyped.
  template <class T>
  const T& get(const std::string& key) const {
    auto it = params_.find(key);
    require(it != params_.end(), "ParameterList: no parameter '", key, "'");
    const T* v = std::get_if<T>(&it->second);
    require(v != nullptr,
            "ParameterList: parameter '", key, "' has a different type");
    return *v;
  }

  /// Typed access with a default for missing keys (mistyping still throws).
  template <class T>
  T get_or(const std::string& key, T fallback) const {
    auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    const T* v = std::get_if<T>(&it->second);
    require(v != nullptr,
            "ParameterList: parameter '", key, "' has a different type");
    return *v;
  }

  /// Convenience for the common int case (stored as int64).
  int get_int(const std::string& key, int fallback) const {
    return static_cast<int>(get_or<std::int64_t>(key, fallback));
  }
  double get_double(const std::string& key, double fallback) const {
    return get_or<double>(key, fallback);
  }
  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    return get_or<std::string>(key, fallback);
  }
  bool get_bool(const std::string& key, bool fallback) const {
    return get_or<bool>(key, fallback);
  }

  /// Returns (creating on demand) a nested sublist.
  ParameterList& sublist(const std::string& key);

  /// Read-only sublist access; throws when absent.
  const ParameterList& sublist(const std::string& key) const;

  bool is_sublist(const std::string& key) const;

  /// Removes a parameter; returns whether it existed.
  bool remove(const std::string& key) { return params_.erase(key) > 0; }

  /// Sorted parameter names.
  std::vector<std::string> names() const;

  std::size_t size() const { return params_.size(); }
  bool empty() const { return params_.empty(); }

  /// XML-style round-trippable serialization (Teuchos XML I/O analogue).
  std::string to_xml() const;
  static ParameterList from_xml(const std::string& xml);

  bool operator==(const ParameterList& other) const;

 private:
  void to_xml_impl(std::string& out, int indent) const;

  std::string name_ = "ANONYMOUS";
  std::map<std::string, ParameterValue> params_;
};

}  // namespace pyhpc::teuchos
