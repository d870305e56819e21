// Tests for the MiniPy front-end (lexer + parser) and the tree-walking
// interpreter: language semantics against Python ground truth.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>

#include "seamless/ast.hpp"
#include "seamless/interpreter.hpp"
#include "seamless/seamless.hpp"
#include "seamless/token.hpp"

namespace sm = pyhpc::seamless;
using sm::Value;

namespace {
// Runs fn(args) through the interpreter.
Value run(const std::string& source, const std::string& fn,
          std::vector<Value> args = {}) {
  sm::Module mod = sm::parse(source);
  sm::Interpreter interp(mod);
  return interp.call(fn, std::move(args));
}
}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenizesNumbersNamesOperators) {
  auto tokens = sm::tokenize("x = 3 + 4.5e2 ** 2\n");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, sm::TokenKind::kName);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[1].kind, sm::TokenKind::kEq);
  EXPECT_EQ(tokens[2].kind, sm::TokenKind::kInt);
  EXPECT_EQ(tokens[2].int_value, 3);
  EXPECT_EQ(tokens[3].kind, sm::TokenKind::kPlus);
  EXPECT_EQ(tokens[4].kind, sm::TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 450.0);
  EXPECT_EQ(tokens[5].kind, sm::TokenKind::kDoubleStar);
}

TEST(Lexer, IndentDedentPairs) {
  const std::string src =
      "def f():\n"
      "    if 1:\n"
      "        return 2\n"
      "    return 3\n";
  auto tokens = sm::tokenize(src);
  int indents = 0, dedents = 0;
  for (const auto& t : tokens) {
    if (t.kind == sm::TokenKind::kIndent) ++indents;
    if (t.kind == sm::TokenKind::kDedent) ++dedents;
  }
  EXPECT_EQ(indents, 2);
  EXPECT_EQ(dedents, 2);
}

TEST(Lexer, CommentsAndBlankLinesIgnored) {
  auto tokens = sm::tokenize("# header\n\nx = 1  # trailing\n\n");
  EXPECT_EQ(tokens[0].kind, sm::TokenKind::kName);
  // name, =, 1, newline, eof
  EXPECT_EQ(tokens.size(), 5u);
}

TEST(Lexer, BracketsSuppressNewlines) {
  auto tokens = sm::tokenize("y = f(1,\n      2)\n");
  int newlines = 0;
  for (const auto& t : tokens) {
    if (t.kind == sm::TokenKind::kNewline) ++newlines;
  }
  EXPECT_EQ(newlines, 1);
}

TEST(Lexer, ErrorsCarryLineNumbers) {
  try {
    sm::tokenize("x = 1\ny = $\n");
    FAIL() << "expected CompileError";
  } catch (const pyhpc::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(sm::tokenize("\tx = 1\n"), pyhpc::CompileError);
  EXPECT_THROW(sm::tokenize("s = 'unterminated\n"), pyhpc::CompileError);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(Parser, FunctionStructure) {
  auto mod = sm::parse(
      "def hypot(x, y):\n"
      "    return sqrt(x * x + y * y)\n");
  ASSERT_EQ(mod.functions.size(), 1u);
  const auto& fn = mod.function("hypot");
  EXPECT_EQ(fn.params, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(fn.body.size(), 1u);
  EXPECT_EQ(fn.body[0]->kind, sm::StmtKind::kReturn);
}

TEST(Parser, PrecedenceMatchesPython) {
  // 2 + 3 * 4 ** 2 == 50; (2+3)*4 == 20; -2 ** 2 == -4 (unary binds looser).
  EXPECT_EQ(run("def f():\n    return 2 + 3 * 4 ** 2\n", "f").as_int(), 50);
  EXPECT_EQ(run("def f():\n    return (2 + 3) * 4\n", "f").as_int(), 20);
  EXPECT_EQ(run("def f():\n    return -2 ** 2\n", "f").as_int(), -4);
}

TEST(Parser, SyntaxErrorsHaveContext) {
  EXPECT_THROW(sm::parse("def f(:\n    pass\n"), pyhpc::CompileError);
  EXPECT_THROW(sm::parse("x = 1\n"), pyhpc::CompileError);  // top-level stmt
  EXPECT_THROW(sm::parse("def f():\npass\n"), pyhpc::CompileError);  // no indent
  EXPECT_THROW(sm::parse("def f():\n    for x in items:\n        pass\n"),
               pyhpc::CompileError);  // non-range for
  EXPECT_THROW(sm::parse("def f():\n    1 + 2 = 3\n"), pyhpc::CompileError);
}

TEST(Parser, ParseExpressionHelper) {
  auto e = sm::parse_expression("1 + 2 * x");
  EXPECT_EQ(e->kind, sm::ExprKind::kBinary);
  EXPECT_EQ(e->bin_op, sm::BinOp::kAdd);
}

namespace {

bool parses(const std::string& source) {
  try {
    sm::parse(source);
    return true;
  } catch (const pyhpc::CompileError&) {
    return false;
  }
}

// The largest n whose source parses, found by doubling then bisecting.
int deepest_accepted(const std::function<std::string(int)>& source_of) {
  int ok = 0;
  int bad = 1;
  while (parses(source_of(bad))) {
    ok = bad;
    bad *= 2;
  }
  while (bad - ok > 1) {
    const int mid = ok + (bad - ok) / 2;
    (parses(source_of(mid)) ? ok : bad) = mid;
  }
  return ok;
}

}  // namespace

TEST(Parser, DeepNestingIsACompileError) {
  // Four shapes of def f(x), each nesting n deep: parentheses, if blocks,
  // unary minuses, and a left-associative chain (whose leftmost operand
  // sits n - 1 operator nodes down).
  const std::function<std::string(int)> shapes[] = {
      [](int n) {
        return "def f(x):\n    return " + std::string(n, '(') + "x" +
               std::string(n, ')') + "\n";
      },
      [](int n) {
        std::string s = "def f(x):\n";
        for (int i = 1; i <= n; ++i) s += std::string(i, ' ') + "if x:\n";
        return s + std::string(n + 1, ' ') + "return 1\n";
      },
      [](int n) {
        return "def f(x):\n    return " + std::string(n, '-') + "x\n";
      },
      [](int n) {
        std::string s = "def f(x):\n    return x";
        for (int i = 1; i < n; ++i) s += " + x";
        return s + "\n";
      },
  };
  // Each nested block indents one column more, so that source grows as
  // n^2 / 2: 50 MB at 10,000 levels, where 100,000 would need 5 GB.
  const int too_deep[] = {100000, 10000, 100000, 100000};
  for (int shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    try {
      sm::parse(shapes[shape](too_deep[shape]));
      ADD_FAILURE() << "parsed";
    } catch (const pyhpc::CompileError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
          << e.what();
    }
    // The deepest source that parses sits within two levels of the limit
    // (the def body and the leaf count too), and the interpreter and the
    // JIT, which both walk the tree recursively, agree on it.
    const int n = deepest_accepted(shapes[shape]);
    EXPECT_GE(n, sm::kMaxNesting - 2);
    EXPECT_LT(n, sm::kMaxNesting);
    sm::Engine engine(shapes[shape](n));
    const Value vi = engine.run_interpreted("f", {Value::of(1)});
    const Value vj = engine.run_jit("f", {Value::of(1)});
    EXPECT_EQ(vi.as_int(), vj.as_int());
    EXPECT_EQ(std::abs(vi.as_int()), shape == 3 ? n : 1);
  }
  // parse_expression has the same limit.
  EXPECT_THROW(sm::parse_expression(std::string(100000, '(') + "1" +
                                    std::string(100000, ')')),
               pyhpc::CompileError);
  EXPECT_THROW(sm::parse_expression(std::string(100000, '-') + "1"),
               pyhpc::CompileError);
  std::string chain = "1";
  for (int i = 1; i < 100000; ++i) chain += " + 1";
  EXPECT_THROW(sm::parse_expression(chain), pyhpc::CompileError);
}

// ---------------------------------------------------------------------------
// Interpreter semantics
// ---------------------------------------------------------------------------

TEST(Interp, ArithmeticSemanticsMatchPython) {
  // True division yields float even for ints.
  EXPECT_DOUBLE_EQ(run("def f():\n    return 7 / 2\n", "f").as_float(), 3.5);
  // Floor division and modulo round toward -inf.
  EXPECT_EQ(run("def f():\n    return -7 // 2\n", "f").as_int(), -4);
  EXPECT_EQ(run("def f():\n    return -7 % 2\n", "f").as_int(), 1);
  EXPECT_EQ(run("def f():\n    return 7 % -2\n", "f").as_int(), -1);
  // Int/float promotion.
  EXPECT_DOUBLE_EQ(run("def f():\n    return 1 + 0.5\n", "f").as_float(), 1.5);
  // Integer power stays integer for non-negative exponents.
  EXPECT_EQ(run("def f():\n    return 2 ** 10\n", "f").as_int(), 1024);
  EXPECT_DOUBLE_EQ(run("def f():\n    return 2 ** -1\n", "f").as_float(), 0.5);
}

TEST(Interp, PaperSumExample) {
  // §IV.A verbatim (minus the decorator):
  const std::string src =
      "def sum(it):\n"
      "    res = 0.0\n"
      "    for i in range(len(it)):\n"
      "        res += it[i]\n"
      "    return res\n";
  auto arr = sm::ArrayValue::owned({1.5, 2.5, 3.0});
  EXPECT_DOUBLE_EQ(run(src, "sum", {Value::of(arr)}).as_float(), 7.0);
}

TEST(Interp, ControlFlow) {
  const std::string src =
      "def classify(x):\n"
      "    if x < 0:\n"
      "        return -1\n"
      "    elif x == 0:\n"
      "        return 0\n"
      "    else:\n"
      "        return 1\n";
  EXPECT_EQ(run(src, "classify", {Value::of(-5)}).as_int(), -1);
  EXPECT_EQ(run(src, "classify", {Value::of(0)}).as_int(), 0);
  EXPECT_EQ(run(src, "classify", {Value::of(3)}).as_int(), 1);
}

TEST(Interp, WhileWithBreakContinue) {
  const std::string src =
      "def f(n):\n"
      "    total = 0\n"
      "    i = 0\n"
      "    while True:\n"
      "        i += 1\n"
      "        if i > n:\n"
      "            break\n"
      "        if i % 2 == 0:\n"
      "            continue\n"
      "        total += i\n"
      "    return total\n";
  EXPECT_EQ(run(src, "f", {Value::of(10)}).as_int(), 25);  // 1+3+5+7+9
}

TEST(Interp, ForRangeVariants) {
  const std::string src =
      "def f():\n"
      "    total = 0\n"
      "    for i in range(5):\n"
      "        total += i\n"
      "    for i in range(2, 6):\n"
      "        total += i\n"
      "    for i in range(10, 0, -2):\n"
      "        total += i\n"
      "    return total\n";
  EXPECT_EQ(run(src, "f").as_int(), 10 + 14 + 30);
}

TEST(Interp, RecursionAndMultipleFunctions) {
  const std::string src =
      "def fib(n):\n"
      "    if n < 2:\n"
      "        return n\n"
      "    return fib(n - 1) + fib(n - 2)\n"
      "def double_fib(n):\n"
      "    return 2 * fib(n)\n";
  EXPECT_EQ(run(src, "fib", {Value::of(10)}).as_int(), 55);
  EXPECT_EQ(run(src, "double_fib", {Value::of(10)}).as_int(), 110);
}

TEST(Interp, InfiniteRecursionBounded) {
  EXPECT_THROW(run("def f(n):\n    return f(n)\n", "f", {Value::of(1)}),
               pyhpc::RuntimeFault);
}

TEST(Interp, DeepBodyRecursionBounded) {
  // 390 calls with the self-call under 200 unary minuses each: few enough
  // calls, but the nesting inside the bodies adds up, and the budget
  // charges it.
  const std::string deep =
      "def f(n):\n"
      "    if n == 0:\n"
      "        return 0\n"
      "    return " + std::string(200, '-') + "f(n - 1)\n";
  try {
    run(deep, "f", {Value::of(390)});
    FAIL() << "returned";
  } catch (const pyhpc::RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("maximum recursion depth exceeded"),
              std::string::npos)
        << e.what();
  }
  // The same depth of recursion with a shallow body still returns.
  const std::string shallow =
      "def f(n):\n"
      "    if n == 0:\n"
      "        return 0\n"
      "    return f(n - 1) + 1\n";
  EXPECT_EQ(run(shallow, "f", {Value::of(390)}).as_int(), 390);
}

TEST(Interp, ListsAndArrays) {
  const std::string src =
      "def f(n):\n"
      "    xs = zeros(n)\n"
      "    for i in range(n):\n"
      "        xs[i] = i * i\n"
      "    total = 0.0\n"
      "    for i in range(len(xs)):\n"
      "        total += xs[i]\n"
      "    return total\n";
  EXPECT_DOUBLE_EQ(run(src, "f", {Value::of(5)}).as_float(), 30.0);
}

TEST(Interp, NegativeIndexingWraps) {
  const std::string src = "def last(a):\n    return a[-1]\n";
  auto arr = sm::ArrayValue::owned({1.0, 2.0, 9.0});
  EXPECT_DOUBLE_EQ(run(src, "last", {Value::of(arr)}).as_float(), 9.0);
}

TEST(Interp, BoolOpsShortCircuitAndReturnOperand) {
  // Python returns the deciding operand.
  EXPECT_EQ(run("def f():\n    return 0 or 7\n", "f").as_int(), 7);
  EXPECT_EQ(run("def f():\n    return 3 and 5\n", "f").as_int(), 5);
  EXPECT_EQ(run("def f():\n    return 0 and 5\n", "f").as_int(), 0);
  // Short-circuit: the crashing rhs must not run.
  const std::string src =
      "def boom():\n"
      "    return 1 // 0\n"
      "def f(x):\n"
      "    return x == 0 or boom() > 0\n";
  EXPECT_TRUE(run(src, "f", {Value::of(0)}).as_bool());
  EXPECT_THROW(run(src, "f", {Value::of(1)}), pyhpc::RuntimeFault);
}

TEST(Interp, RuntimeErrorsCarryLines) {
  try {
    run("def f():\n    return 1 // 0\n", "f");
    FAIL();
  } catch (const pyhpc::RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(run("def f():\n    return nope\n", "f"), pyhpc::RuntimeFault);
  EXPECT_THROW(run("def f(a):\n    return a[100]\n", "f",
                   {Value::of(sm::ArrayValue::owned({1.0}))}),
               pyhpc::RuntimeFault);
}

TEST(Interp, StringsBasics) {
  EXPECT_EQ(run("def f():\n    return 'ab' + 'cd'\n", "f").as_string(), "abcd");
  EXPECT_TRUE(run("def f():\n    return 'x' == 'x'\n", "f").as_bool());
  EXPECT_EQ(run("def f():\n    return len('hello')\n", "f").as_int(), 5);
}

TEST(Interp, CustomBuiltinInjection) {
  sm::Module mod = sm::parse("def f(x):\n    return twice(x) + 1\n");
  sm::Interpreter interp(mod);
  interp.register_builtin("twice", [](std::span<const Value> args) {
    return Value::of(args[0].to_int() * 2);
  });
  EXPECT_EQ(interp.call("f", {Value::of(20)}).as_int(), 41);
}

TEST(Interp, ValueReprAndTruthiness) {
  EXPECT_EQ(Value::of(3).repr(), "3");
  EXPECT_EQ(Value::none().repr(), "None");
  EXPECT_EQ(Value::of(true).repr(), "True");
  EXPECT_FALSE(Value::none().truthy());
  EXPECT_FALSE(Value::of(0.0).truthy());
  EXPECT_TRUE(Value::of(std::string("x")).truthy());
  EXPECT_FALSE(Value::of(std::string("")).truthy());
}

TEST(Interp, SelfContainingListReprsLikePython) {
  sm::Engine engine(
      "def f():\n    xs = list(1)\n    xs[0] = xs\n    return xs\n");
  const Value xs = engine.run_interpreted("f", {});
  EXPECT_EQ(xs.repr(), "[[...]]");
  // A list that merely appears twice is not a cycle.
  auto inner = std::make_shared<sm::ListValue>();
  inner->items = {Value::of(1)};
  auto outer = std::make_shared<sm::ListValue>();
  outer->items = {Value::of(inner), Value::of(inner)};
  EXPECT_EQ(Value::of(outer).repr(), "[[1], [1]]");
  // The list holds a reference to itself; break the cycle so the test does
  // not leak it.
  xs.as_list()->items.clear();
}
