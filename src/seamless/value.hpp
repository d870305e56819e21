// Boxed runtime values for the MiniPy interpreter — the stand-in for
// CPython's PyObject. Every value is a tagged variant; numeric
// operations go through dynamic dispatch with int->float promotion, which
// is exactly the overhead the Seamless JIT tier removes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "seamless/ast.hpp"
#include "util/error.hpp"

namespace pyhpc::seamless {

class Value;

/// Python list: heterogeneous boxed items, reference semantics.
struct ListValue {
  std::vector<Value> items;
};

/// NumPy-style float64 buffer. Owns its storage unless constructed as a
/// view over external memory (the embed API's zero-copy path).
struct ArrayValue {
  std::vector<double> storage;
  double* data = nullptr;
  std::size_t size = 0;

  static std::shared_ptr<ArrayValue> owned(std::vector<double> values) {
    auto a = std::make_shared<ArrayValue>();
    a->storage = std::move(values);
    a->data = a->storage.data();
    a->size = a->storage.size();
    return a;
  }

  static std::shared_ptr<ArrayValue> view(double* ptr, std::size_t n) {
    auto a = std::make_shared<ArrayValue>();
    a->data = ptr;
    a->size = n;
    return a;
  }

  std::span<double> span() { return {data, size}; }
  std::span<const double> span() const { return {data, size}; }
};

class Value {
 public:
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double,
                   std::shared_ptr<std::string>, std::shared_ptr<ListValue>,
                   std::shared_ptr<ArrayValue>>;

  Value() = default;  // None
  static Value none() { return Value(); }
  static Value of(bool b) { return Value(Storage(b)); }
  static Value of(std::int64_t i) { return Value(Storage(i)); }
  static Value of(int i) { return Value(Storage(static_cast<std::int64_t>(i))); }
  static Value of(double d) { return Value(Storage(d)); }
  static Value of(std::string s) {
    return Value(Storage(std::make_shared<std::string>(std::move(s))));
  }
  static Value of(std::shared_ptr<ListValue> l) {
    return Value(Storage(std::move(l)));
  }
  static Value of(std::shared_ptr<ArrayValue> a) {
    return Value(Storage(std::move(a)));
  }

  bool is_none() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_string() const {
    return std::holds_alternative<std::shared_ptr<std::string>>(v_);
  }
  bool is_list() const {
    return std::holds_alternative<std::shared_ptr<ListValue>>(v_);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<ArrayValue>>(v_);
  }
  bool is_numeric() const { return is_bool() || is_int() || is_float(); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  double as_float() const { return std::get<double>(v_); }
  const std::string& as_string() const {
    return *std::get<std::shared_ptr<std::string>>(v_);
  }
  const std::shared_ptr<ListValue>& as_list() const {
    return std::get<std::shared_ptr<ListValue>>(v_);
  }
  const std::shared_ptr<ArrayValue>& as_array() const {
    return std::get<std::shared_ptr<ArrayValue>>(v_);
  }

  /// Numeric coercion to double (bool/int/float); throws RuntimeFault.
  double to_double() const;
  /// Numeric coercion to int64 (bool/int; exact floats); throws.
  std::int64_t to_int() const;
  /// Python truthiness (None/0/0.0/empty are false).
  bool truthy() const;

  std::string type_name() const;
  std::string repr() const;

 private:
  explicit Value(Storage v) : v_(std::move(v)) {}
  Storage v_;
};

// ---- dynamic arithmetic (the "CPython" semantics) -------------------------

/// Applies a binary operator with Python numeric semantics (promotion,
/// true/floor division, comparisons yielding bool). Throws RuntimeFault on
/// unsupported operand types, division by zero, etc.
Value binary_op(BinOp op, const Value& lhs, const Value& rhs, int line);

Value unary_op(UnaryOp op, const Value& operand, int line);

/// v[index] for lists and arrays; negative indices wrap.
Value index_load(const Value& target, const Value& index, int line);

/// v[index] = value.
void index_store(const Value& target, const Value& index, const Value& value,
                 int line);

/// len(v) for strings, lists, arrays.
std::int64_t value_length(const Value& v, int line);

}  // namespace pyhpc::seamless
