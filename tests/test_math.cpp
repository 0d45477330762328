// Unit tests for glva_math: expression trees, parsing, evaluation,
// compilation, and MathML I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "math/expr.h"
#include "math/expr_parser.h"
#include "math/mathml.h"
#include "util/errors.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace {

using namespace glva::math;

double eval(const std::string& text, const Environment& env = {}) {
  return evaluate(*parse_expression(text), env);
}

// ------------------------------------------------------------------ parse

TEST(ExprParser, NumbersAndPrecedence) {
  EXPECT_DOUBLE_EQ(eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("2^3^2"), 512.0);   // right associative
  EXPECT_DOUBLE_EQ(eval("8 / 4 / 2"), 1.0); // left associative
  EXPECT_DOUBLE_EQ(eval("7 - 4 - 2"), 1.0);
}

TEST(ExprParser, UnarySigns) {
  EXPECT_DOUBLE_EQ(eval("-3"), -3.0);
  EXPECT_DOUBLE_EQ(eval("--3"), 3.0);
  EXPECT_DOUBLE_EQ(eval("2 * -3"), -6.0);
  EXPECT_DOUBLE_EQ(eval("-2^2"), -4.0);  // sign binds looser than power
}

TEST(ExprParser, ScientificNotation) {
  EXPECT_DOUBLE_EQ(eval("1.5e2"), 150.0);
  EXPECT_DOUBLE_EQ(eval("2E-3"), 0.002);
}

TEST(ExprParser, SymbolsResolveFromEnvironment) {
  const Environment env{{"GFP", 42.0}, {"k_1", 2.0}};
  EXPECT_DOUBLE_EQ(eval("GFP / k_1", env), 21.0);
}

TEST(ExprParser, UnboundSymbolThrows) {
  EXPECT_THROW(eval("missing"), glva::InvalidArgument);
}

TEST(ExprParser, Functions) {
  EXPECT_DOUBLE_EQ(eval("exp(0)"), 1.0);
  EXPECT_DOUBLE_EQ(eval("ln(exp(2))"), 2.0);
  EXPECT_DOUBLE_EQ(eval("log10(1000)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("sqrt(16)"), 4.0);
  EXPECT_DOUBLE_EQ(eval("abs(-5)"), 5.0);
  EXPECT_DOUBLE_EQ(eval("floor(2.7)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("ceil(2.1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("min(3, 1, 2)"), 1.0);
  EXPECT_DOUBLE_EQ(eval("max(3, 1, 2)"), 3.0);
}

TEST(ExprParser, HillFunction) {
  // hill(x, k, n) = x^n / (k^n + x^n)
  EXPECT_DOUBLE_EQ(eval("hill(8, 8, 2)"), 0.5);
  EXPECT_DOUBLE_EQ(eval("hill(0, 8, 2)"), 0.0);
  EXPECT_NEAR(eval("hill(16, 8, 2)"), 4.0 / 5.0, 1e-12);
  // Defined at the k = 0 boundary (no NaN propensities).
  EXPECT_DOUBLE_EQ(eval("hill(0, 0, 2)"), 0.0);
}

TEST(ExprParser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_expression(""), glva::ParseError);
  EXPECT_THROW((void)parse_expression("1 +"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("(1"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("1 2"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("foo(1)"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("hill(1, 2)"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("min(1)"), glva::ParseError);
  EXPECT_THROW((void)parse_expression("@"), glva::ParseError);
}

// ------------------------------------------------------------------ print

TEST(Expr, PrintingUsesMinimalParentheses) {
  EXPECT_EQ(parse_expression("1 + 2 * 3")->to_string(), "1 + 2 * 3");
  EXPECT_EQ(parse_expression("(1 + 2) * 3")->to_string(), "(1 + 2) * 3");
  EXPECT_EQ(parse_expression("a - (b - c)")->to_string(), "a - (b - c)");
  EXPECT_EQ(parse_expression("a / (b * c)")->to_string(), "a / (b * c)");
}

TEST(Expr, PrintRoundTripPreservesValue) {
  const Environment env{{"x", 1.7}, {"y", 0.3}, {"K", 8.0}};
  for (const char* text :
       {"x + y * 2", "hill(x, K, 2.5) * (1 - y)", "-x^2 + exp(y)",
        "min(x, y, K) / max(x, 0.1)"}) {
    const auto once = parse_expression(text);
    const auto twice = parse_expression(once->to_string());
    EXPECT_NEAR(evaluate(*once, env), evaluate(*twice, env), 1e-12) << text;
  }
}

TEST(Expr, SymbolsAreSortedAndUnique) {
  const auto expr = parse_expression("b + a * b + hill(a, K, n)");
  EXPECT_EQ(expr->symbols(),
            (std::vector<std::string>{"K", "a", "b", "n"}));
}

TEST(Expr, StructuralEquality) {
  EXPECT_TRUE(parse_expression("a + 2")->equals(*parse_expression("a + 2")));
  EXPECT_FALSE(parse_expression("a + 2")->equals(*parse_expression("2 + a")));
  EXPECT_FALSE(parse_expression("a")->equals(*parse_expression("b")));
}

TEST(Expr, CallArityIsValidated) {
  EXPECT_THROW((void)Expr::call(Function::kHill, {Expr::number(1)}),
               glva::InvalidArgument);
  EXPECT_THROW((void)Expr::call(Function::kMin, {Expr::number(1)}),
               glva::InvalidArgument);
}

// --------------------------------------------------------------- compiled

TEST(CompiledExpr, MatchesTreeWalkingEvaluation) {
  const std::vector<std::string> names{"x", "y", "K"};
  const auto index = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    throw glva::InvalidArgument("unknown " + name);
  };
  const std::vector<double> values{1.7, 0.3, 8.0};
  const Environment env{{"x", 1.7}, {"y", 0.3}, {"K", 8.0}};

  for (const char* text :
       {"0.5 + x * y", "hill(x, K, 2.5)", "x^2 - -y", "min(x, y) + max(x, y, K)",
        "exp(-y) / (1 + x)", "floor(x) + ceil(y) + abs(-x)",
        "ln(K) + log10(K) + sqrt(K)"}) {
    const auto expr = parse_expression(text);
    const CompiledExpr compiled(*expr, index);
    EXPECT_NEAR(compiled.evaluate(values), evaluate(*expr, env), 1e-12) << text;
  }
}

TEST(CompiledExpr, TracksDependencies) {
  const auto index = [](const std::string& name) -> std::size_t {
    return name == "a" ? 0 : (name == "b" ? 1 : 2);
  };
  const CompiledExpr compiled(*parse_expression("a * 2 + hill(b, b, 2)"), index);
  EXPECT_EQ(compiled.dependencies(), (std::vector<std::size_t>{0, 1}));
}

TEST(CompiledExpr, LawsDeeperThanTheLocalStackStillEvaluate) {
  const auto index = [](const std::string&) -> std::size_t { return 0; };
  // "1 + (2 + (3 + ...))" pushes every operand before the first add.
  const auto nested_sum = [](int terms) {
    std::string text = "x";
    for (int term = terms; term >= 1; --term) {
      text = std::to_string(term) + " + (" + text + ")";
    }
    return parse_expression(text);
  };
  const Environment env{{"x", 0.5}};
  constexpr int kTerms = 3 * static_cast<int>(CompiledExpr::kLocalStackDepth);
  const auto expr = nested_sum(kTerms);
  const CompiledExpr compiled(*expr, index);
  EXPECT_EQ(compiled.stack_depth(), static_cast<std::size_t>(kTerms) + 1);
  EXPECT_EQ(compiled.evaluate({0.5}), evaluate(*expr, env));
  // A second deep program, shallower and then deeper than the first,
  // shares the thread's overflow buffer with it.
  for (const int terms : {kTerms - 7, 2 * kTerms}) {
    const auto other = nested_sum(terms);
    EXPECT_EQ(CompiledExpr(*other, index).evaluate({0.5}),
              evaluate(*other, env))
        << terms;
    EXPECT_EQ(compiled.evaluate({0.5}), evaluate(*expr, env)) << terms;
  }

  const CompiledExpr hill(*parse_expression("1 - hill(x, 5, 2)"), index);
  EXPECT_EQ(hill.stack_depth(), 4u);
  EXPECT_EQ(CompiledExpr().evaluate({}), 0.0);
}

TEST(CompiledExpr, UnknownSymbolFailsAtCompileTime) {
  const auto index = [](const std::string&) -> std::size_t {
    throw glva::InvalidArgument("nope");
  };
  EXPECT_THROW(CompiledExpr(*parse_expression("x"), index),
               glva::InvalidArgument);
}

// ----------------------------------------------------------------- MathML

TEST(MathML, WritesAndReadsBack) {
  const Environment env{{"S", 12.0}, {"K", 8.0}};
  for (const char* text :
       {"1 + S", "S * K - 3", "S / K", "S^2", "-S", "exp(S) + ln(K)",
        "min(S, K) + max(S, K)", "abs(-S) + floor(S) + ceil(S)", "sqrt(K)",
        "log10(K)"}) {
    const auto expr = parse_expression(text);
    const auto math = to_mathml(*expr);
    const auto back = from_mathml(*math);
    EXPECT_NEAR(evaluate(*expr, env), evaluate(*back, env), 1e-12) << text;
  }
}

TEST(MathML, HillExpandsToPlainMathML) {
  const auto math = to_mathml(*parse_expression("hill(S, 8, 2)"));
  const std::string doc = glva::xml::write_document(*math);
  EXPECT_EQ(doc.find("hill"), std::string::npos);  // no custom symbols
  const auto back = from_mathml(*math);
  const Environment env{{"S", 8.0}};
  EXPECT_DOUBLE_EQ(evaluate(*back, env), 0.5);
}

TEST(MathML, ReadsNaryPlusAndTimes) {
  const auto node = glva::xml::parse_document(
      "<math><apply><plus/><cn>1</cn><cn>2</cn><cn>3</cn></apply></math>");
  EXPECT_DOUBLE_EQ(evaluate(*from_mathml(*node), {}), 6.0);
  const auto node2 = glva::xml::parse_document(
      "<math><apply><times/><cn>2</cn><cn>3</cn><cn>4</cn></apply></math>");
  EXPECT_DOUBLE_EQ(evaluate(*from_mathml(*node2), {}), 24.0);
}

TEST(MathML, ReadsUnaryMinus) {
  const auto node = glva::xml::parse_document(
      "<math><apply><minus/><ci>x</ci></apply></math>");
  EXPECT_DOUBLE_EQ(evaluate(*from_mathml(*node), {{"x", 3.0}}), -3.0);
}

TEST(MathML, ReadsENotation) {
  const auto node = glva::xml::parse_document(
      "<math><cn type=\"e-notation\">1.5<sep/>2</cn></math>");
  EXPECT_DOUBLE_EQ(evaluate(*from_mathml(*node), {}), 150.0);
}

TEST(MathML, ReadsLogWithBaseAndRootWithDegree) {
  const auto log2 = glva::xml::parse_document(
      "<math><apply><log/><logbase><cn>2</cn></logbase><cn>8</cn></apply>"
      "</math>");
  EXPECT_NEAR(evaluate(*from_mathml(*log2), {}), 3.0, 1e-12);
  const auto cbrt = glva::xml::parse_document(
      "<math><apply><root/><degree><cn>3</cn></degree><cn>27</cn></apply>"
      "</math>");
  EXPECT_NEAR(evaluate(*from_mathml(*cbrt), {}), 3.0, 1e-12);
}

TEST(MathML, RejectsUnsupportedContent) {
  const auto bad1 = glva::xml::parse_document(
      "<math><apply><sin/><cn>1</cn></apply></math>");
  EXPECT_THROW((void)from_mathml(*bad1), glva::ParseError);
  const auto bad2 = glva::xml::parse_document("<math><cn>abc</cn></math>");
  EXPECT_THROW((void)from_mathml(*bad2), glva::ParseError);
  const auto bad3 = glva::xml::parse_document("<math><apply/></math>");
  EXPECT_THROW((void)from_mathml(*bad3), glva::ParseError);
  const auto bad4 =
      glva::xml::parse_document("<math><ci>a</ci><ci>b</ci></math>");
  EXPECT_THROW((void)from_mathml(*bad4), glva::ParseError);
}

}  // namespace
