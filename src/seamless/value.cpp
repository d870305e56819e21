#include "seamless/value.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"

namespace pyhpc::seamless {

namespace {

[[noreturn]] void fault(int line, const std::string& msg) {
  throw RuntimeFault(util::cat("line ", line, ": ", msg));
}

std::int64_t ipow(std::int64_t base, std::int64_t exp) {
  std::int64_t result = 1;
  while (exp > 0) {
    if (exp & 1) result *= base;
    base *= base;
    exp >>= 1;
  }
  return result;
}

std::int64_t floordiv(std::int64_t a, std::int64_t b, int line) {
  if (b == 0) fault(line, "integer division by zero");
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t pymod(std::int64_t a, std::int64_t b, int line) {
  if (b == 0) fault(line, "integer modulo by zero");
  std::int64_t m = a % b;
  if (m != 0 && ((a < 0) != (b < 0))) m += b;
  return m;
}

// A list that contains itself prints as [...] where it recurs, as in
// Python: `path` holds the lists between the outermost value and this one.
std::string list_repr(const ListValue& list,
                      std::vector<const ListValue*>& path) {
  if (std::find(path.begin(), path.end(), &list) != path.end()) return "[...]";
  path.push_back(&list);
  std::vector<std::string> parts;
  for (const auto& item : list.items) {
    parts.push_back(item.is_list() ? list_repr(*item.as_list(), path)
                                   : item.repr());
  }
  path.pop_back();
  return util::cat("[", util::join(parts, ", "), "]");
}

}  // namespace

double Value::to_double() const {
  if (is_float()) return as_float();
  if (is_int()) return static_cast<double>(as_int());
  if (is_bool()) return as_bool() ? 1.0 : 0.0;
  throw RuntimeFault("cannot convert " + type_name() + " to float");
}

std::int64_t Value::to_int() const {
  if (is_int()) return as_int();
  if (is_bool()) return as_bool() ? 1 : 0;
  if (is_float()) {
    const double d = as_float();
    return static_cast<std::int64_t>(d);
  }
  throw RuntimeFault("cannot convert " + type_name() + " to int");
}

bool Value::truthy() const {
  if (is_none()) return false;
  if (is_bool()) return as_bool();
  if (is_int()) return as_int() != 0;
  if (is_float()) return as_float() != 0.0;
  if (is_string()) return !as_string().empty();
  if (is_list()) return !as_list()->items.empty();
  if (is_array()) return as_array()->size != 0;
  return false;
}

std::string Value::type_name() const {
  if (is_none()) return "None";
  if (is_bool()) return "bool";
  if (is_int()) return "int";
  if (is_float()) return "float";
  if (is_string()) return "str";
  if (is_list()) return "list";
  if (is_array()) return "array";
  return "?";
}

std::string Value::repr() const {
  if (is_none()) return "None";
  if (is_bool()) return as_bool() ? "True" : "False";
  if (is_int()) return std::to_string(as_int());
  if (is_float()) return std::to_string(as_float());
  if (is_string()) return "'" + as_string() + "'";
  if (is_list()) {
    std::vector<const ListValue*> path;
    return list_repr(*as_list(), path);
  }
  if (is_array()) {
    return util::cat("array(n=", as_array()->size, ")");
  }
  return "?";
}

Value binary_op(BinOp op, const Value& lhs, const Value& rhs, int line) {
  // Comparisons first (they always yield bool).
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (!lhs.is_numeric() || !rhs.is_numeric()) {
        if (lhs.is_string() && rhs.is_string()) {
          const int c = lhs.as_string().compare(rhs.as_string());
          switch (op) {
            case BinOp::kEq: return Value::of(c == 0);
            case BinOp::kNe: return Value::of(c != 0);
            case BinOp::kLt: return Value::of(c < 0);
            case BinOp::kLe: return Value::of(c <= 0);
            case BinOp::kGt: return Value::of(c > 0);
            default: return Value::of(c >= 0);
          }
        }
        if (op == BinOp::kEq) return Value::of(lhs.is_none() && rhs.is_none());
        if (op == BinOp::kNe) {
          return Value::of(!(lhs.is_none() && rhs.is_none()));
        }
        fault(line, "unorderable types: " + lhs.type_name() + " and " +
                        rhs.type_name());
      }
      const double a = lhs.to_double();
      const double b = rhs.to_double();
      switch (op) {
        case BinOp::kEq: return Value::of(a == b);
        case BinOp::kNe: return Value::of(a != b);
        case BinOp::kLt: return Value::of(a < b);
        case BinOp::kLe: return Value::of(a <= b);
        case BinOp::kGt: return Value::of(a > b);
        default: return Value::of(a >= b);
      }
    }
    default:
      break;
  }

  // String concatenation.
  if (op == BinOp::kAdd && lhs.is_string() && rhs.is_string()) {
    return Value::of(lhs.as_string() + rhs.as_string());
  }
  // List concatenation.
  if (op == BinOp::kAdd && lhs.is_list() && rhs.is_list()) {
    auto out = std::make_shared<ListValue>();
    out->items = lhs.as_list()->items;
    out->items.insert(out->items.end(), rhs.as_list()->items.begin(),
                      rhs.as_list()->items.end());
    return Value::of(std::move(out));
  }

  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    fault(line, util::cat("unsupported operand types: ", lhs.type_name(),
                          " and ", rhs.type_name()));
  }

  const bool both_int =
      (lhs.is_int() || lhs.is_bool()) && (rhs.is_int() || rhs.is_bool());
  if (both_int) {
    const std::int64_t a = lhs.to_int();
    const std::int64_t b = rhs.to_int();
    switch (op) {
      case BinOp::kAdd: return Value::of(a + b);
      case BinOp::kSub: return Value::of(a - b);
      case BinOp::kMul: return Value::of(a * b);
      case BinOp::kDiv: {  // true division
        if (b == 0) fault(line, "division by zero");
        return Value::of(static_cast<double>(a) / static_cast<double>(b));
      }
      case BinOp::kFloorDiv: return Value::of(floordiv(a, b, line));
      case BinOp::kMod: return Value::of(pymod(a, b, line));
      case BinOp::kPow:
        if (b < 0) {
          return Value::of(std::pow(static_cast<double>(a),
                                    static_cast<double>(b)));
        }
        return Value::of(ipow(a, b));
      default: break;
    }
  }

  const double a = lhs.to_double();
  const double b = rhs.to_double();
  switch (op) {
    case BinOp::kAdd: return Value::of(a + b);
    case BinOp::kSub: return Value::of(a - b);
    case BinOp::kMul: return Value::of(a * b);
    case BinOp::kDiv:
      if (b == 0.0) fault(line, "division by zero");
      return Value::of(a / b);
    case BinOp::kFloorDiv:
      if (b == 0.0) fault(line, "division by zero");
      return Value::of(std::floor(a / b));
    case BinOp::kMod:
      if (b == 0.0) fault(line, "modulo by zero");
      return Value::of(a - std::floor(a / b) * b);
    case BinOp::kPow: return Value::of(std::pow(a, b));
    default:
      fault(line, "internal: unhandled binary operator");
  }
}

Value unary_op(UnaryOp op, const Value& operand, int line) {
  switch (op) {
    case UnaryOp::kNot:
      return Value::of(!operand.truthy());
    case UnaryOp::kNeg:
      if (operand.is_int() || operand.is_bool()) {
        return Value::of(-operand.to_int());
      }
      if (operand.is_float()) return Value::of(-operand.as_float());
      fault(line, "cannot negate " + operand.type_name());
  }
  fault(line, "internal: unhandled unary operator");
}

namespace {
std::int64_t normalize_index(std::int64_t i, std::size_t n, int line) {
  const auto sn = static_cast<std::int64_t>(n);
  if (i < 0) i += sn;
  if (i < 0 || i >= sn) {
    fault(line, util::cat("index ", i, " out of range for length ", n));
  }
  return i;
}
}  // namespace

Value index_load(const Value& target, const Value& index, int line) {
  if (!index.is_int() && !index.is_bool()) {
    fault(line, "indices must be integers, not " + index.type_name());
  }
  if (target.is_list()) {
    const auto& items = target.as_list()->items;
    return items[static_cast<std::size_t>(
        normalize_index(index.to_int(), items.size(), line))];
  }
  if (target.is_array()) {
    const auto& arr = *target.as_array();
    return Value::of(arr.data[static_cast<std::size_t>(
        normalize_index(index.to_int(), arr.size, line))]);
  }
  fault(line, target.type_name() + " is not subscriptable");
}

void index_store(const Value& target, const Value& index, const Value& value,
                 int line) {
  if (!index.is_int() && !index.is_bool()) {
    fault(line, "indices must be integers, not " + index.type_name());
  }
  if (target.is_list()) {
    auto& items = target.as_list()->items;
    items[static_cast<std::size_t>(
        normalize_index(index.to_int(), items.size(), line))] = value;
    return;
  }
  if (target.is_array()) {
    auto& arr = *target.as_array();
    if (!value.is_numeric()) {
      fault(line, "arrays hold numbers, not " + value.type_name());
    }
    arr.data[static_cast<std::size_t>(
        normalize_index(index.to_int(), arr.size, line))] = value.to_double();
    return;
  }
  fault(line, target.type_name() + " does not support item assignment");
}

std::int64_t value_length(const Value& v, int line) {
  if (v.is_string()) return static_cast<std::int64_t>(v.as_string().size());
  if (v.is_list()) return static_cast<std::int64_t>(v.as_list()->items.size());
  if (v.is_array()) return static_cast<std::int64_t>(v.as_array()->size);
  fault(line, v.type_name() + " has no len()");
}

}  // namespace pyhpc::seamless
