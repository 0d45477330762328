#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// Arithmetic expression trees for SBML kinetic laws, plus a compiled
/// stack-machine form used in the stochastic simulator's propensity loop.
namespace glva::math {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Binary operators, in SBML/MathML terms.
enum class BinaryOp { kAdd, kSub, kMul, kDiv, kPow };

/// Built-in unary/variadic functions accepted in kinetic laws.
enum class Function {
  kExp,
  kLn,
  kLog10,
  kSqrt,
  kAbs,
  kFloor,
  kCeil,
  kMin,   // variadic
  kMax,   // variadic
  kHill,  // hill(x, k, n) = x^n / (k^n + x^n); GLVA extension for gate models
};

/// Name of a function as written in the infix syntax ("exp", "hill", ...).
[[nodiscard]] const char* function_name(Function f) noexcept;

/// An immutable expression node. Construct via the factory functions; share
/// freely (nodes are value-semantics constants).
class Expr {
public:
  enum class Kind { kNumber, kSymbol, kNegate, kBinary, kCall };

  // -- factories ----------------------------------------------------------
  static ExprPtr number(double value);
  static ExprPtr symbol(std::string name);
  static ExprPtr negate(ExprPtr operand);
  static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr call(Function f, std::vector<ExprPtr> args);

  // Convenience builders used heavily by the gate-model generator.
  static ExprPtr add(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kAdd, a, b); }
  static ExprPtr sub(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kSub, a, b); }
  static ExprPtr mul(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kMul, a, b); }
  static ExprPtr div(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kDiv, a, b); }
  static ExprPtr pow(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kPow, a, b); }

  // -- accessors ----------------------------------------------------------
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] double value() const noexcept { return value_; }           // kNumber
  [[nodiscard]] const std::string& name() const noexcept { return name_; } // kSymbol
  [[nodiscard]] BinaryOp op() const noexcept { return op_; }               // kBinary
  [[nodiscard]] Function function() const noexcept { return function_; }   // kCall
  /// Children: operand for kNegate, {lhs, rhs} for kBinary, args for kCall.
  [[nodiscard]] const std::vector<ExprPtr>& children() const noexcept {
    return children_;
  }

  /// All distinct symbol names in the tree, sorted.
  [[nodiscard]] std::vector<std::string> symbols() const;

  /// Render in infix syntax, parenthesized only where precedence demands.
  [[nodiscard]] std::string to_string() const;

  /// Structural equality.
  [[nodiscard]] bool equals(const Expr& other) const noexcept;

private:
  Expr() = default;

  Kind kind_ = Kind::kNumber;
  double value_ = 0.0;
  std::string name_;
  BinaryOp op_ = BinaryOp::kAdd;
  Function function_ = Function::kExp;
  std::vector<ExprPtr> children_;
};

/// Variable bindings for tree-walking evaluation.
using Environment = std::map<std::string, double, std::less<>>;

/// Evaluate by walking the tree. Throws glva::InvalidArgument for unbound
/// symbols. Division by zero and domain errors follow IEEE semantics
/// (inf/nan propagate; the simulator validates propensities separately).
[[nodiscard]] double evaluate(const Expr& expr, const Environment& env);

/// An expression compiled against a fixed symbol table, evaluated against a
/// dense value vector. This is the hot path: the SSA evaluates propensities
/// millions of times per run, so symbol lookups are resolved to indices
/// once, at compile time.
class CompiledExpr {
public:
  /// `symbol_index(name)` must return the index of `name` in the value
  /// vector passed to evaluate(), or throw if unknown.
  CompiledExpr(const Expr& expr,
               const std::function<std::size_t(const std::string&)>& symbol_index);

  CompiledExpr() = default;

  /// Operand-stack depth evaluate() keeps in a local buffer (every
  /// gate-library law needs at most 7); deeper programs use a per-thread
  /// heap buffer that is reused across calls.
  static constexpr std::size_t kLocalStackDepth = 16;

  /// Evaluate against `values`, where `values[i]` binds the symbol that
  /// compiled to index i. Touches no member state, so one compiled
  /// expression may be evaluated from many threads at once. Allocates
  /// only when a thread first meets a program deeper than any it has
  /// evaluated and deeper than kLocalStackDepth.
  [[nodiscard]] double evaluate(const std::vector<double>& values) const;

  /// Most operands the program holds on its stack at once.
  [[nodiscard]] std::size_t stack_depth() const noexcept {
    return stack_depth_;
  }

  /// Indices of all symbols the expression reads (sorted, unique) — used to
  /// build reaction dependency graphs.
  [[nodiscard]] const std::vector<std::size_t>& dependencies() const noexcept {
    return dependencies_;
  }

private:
  enum class OpCode : unsigned char {
    kPushConst,
    kPushVar,
    kNeg,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kCall1,  // unary function in aux
    kCallN,  // variadic (min/max/hill) in aux, argc in index
  };
  struct Instruction {
    OpCode code;
    std::size_t index = 0;   // constant slot or variable index or argc
    Function aux = Function::kExp;
  };

  void compile(const Expr& expr,
               const std::function<std::size_t(const std::string&)>& symbol_index);

  std::vector<Instruction> program_;
  std::vector<double> constants_;
  std::vector<std::size_t> dependencies_;
  std::size_t stack_depth_ = 0;
};

}  // namespace glva::math
