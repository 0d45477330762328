#include "math/expr.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/errors.h"
#include "util/string_util.h"

namespace glva::math {

const char* function_name(Function f) noexcept {
  switch (f) {
    case Function::kExp: return "exp";
    case Function::kLn: return "ln";
    case Function::kLog10: return "log10";
    case Function::kSqrt: return "sqrt";
    case Function::kAbs: return "abs";
    case Function::kFloor: return "floor";
    case Function::kCeil: return "ceil";
    case Function::kMin: return "min";
    case Function::kMax: return "max";
    case Function::kHill: return "hill";
  }
  return "?";
}

ExprPtr Expr::number(double value) {
  auto node = std::shared_ptr<Expr>(new Expr);
  node->kind_ = Kind::kNumber;
  node->value_ = value;
  return node;
}

ExprPtr Expr::symbol(std::string name) {
  auto node = std::shared_ptr<Expr>(new Expr);
  node->kind_ = Kind::kSymbol;
  node->name_ = std::move(name);
  return node;
}

ExprPtr Expr::negate(ExprPtr operand) {
  auto node = std::shared_ptr<Expr>(new Expr);
  node->kind_ = Kind::kNegate;
  node->children_ = {std::move(operand)};
  return node;
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto node = std::shared_ptr<Expr>(new Expr);
  node->kind_ = Kind::kBinary;
  node->op_ = op;
  node->children_ = {std::move(lhs), std::move(rhs)};
  return node;
}

ExprPtr Expr::call(Function f, std::vector<ExprPtr> args) {
  const std::size_t expected = (f == Function::kMin || f == Function::kMax)
                                   ? 0  // variadic, validated below
                                   : (f == Function::kHill ? 3 : 1);
  if (f == Function::kMin || f == Function::kMax) {
    if (args.size() < 2) {
      throw InvalidArgument(std::string(function_name(f)) +
                            "() needs at least two arguments");
    }
  } else if (args.size() != expected) {
    throw InvalidArgument(std::string(function_name(f)) + "() expects " +
                          std::to_string(expected) + " argument(s), got " +
                          std::to_string(args.size()));
  }
  auto node = std::shared_ptr<Expr>(new Expr);
  node->kind_ = Kind::kCall;
  node->function_ = f;
  node->children_ = std::move(args);
  return node;
}

namespace {

void collect_symbols(const Expr& expr, std::set<std::string>& out) {
  if (expr.kind() == Expr::Kind::kSymbol) {
    out.insert(expr.name());
    return;
  }
  for (const auto& child : expr.children()) collect_symbols(*child, out);
}

/// Precedence used for minimal parenthesization: higher binds tighter.
int precedence(const Expr& expr) noexcept {
  switch (expr.kind()) {
    case Expr::Kind::kNumber:
    case Expr::Kind::kSymbol:
    case Expr::Kind::kCall:
      return 5;
    case Expr::Kind::kNegate:
      return 4;
    case Expr::Kind::kBinary:
      switch (expr.op()) {
        case BinaryOp::kPow: return 3;
        case BinaryOp::kMul:
        case BinaryOp::kDiv: return 2;
        case BinaryOp::kAdd:
        case BinaryOp::kSub: return 1;
      }
  }
  return 0;
}

void render(const Expr& expr, std::string& out) {
  const auto child_with_parens = [&](const Expr& child, bool needs_parens) {
    if (needs_parens) out += '(';
    render(child, out);
    if (needs_parens) out += ')';
  };
  switch (expr.kind()) {
    case Expr::Kind::kNumber:
      out += util::format_double(expr.value());
      return;
    case Expr::Kind::kSymbol:
      out += expr.name();
      return;
    case Expr::Kind::kNegate:
      out += '-';
      child_with_parens(*expr.children()[0],
                        precedence(*expr.children()[0]) < precedence(expr));
      return;
    case Expr::Kind::kCall: {
      out += function_name(expr.function());
      out += '(';
      for (std::size_t i = 0; i < expr.children().size(); ++i) {
        if (i != 0) out += ", ";
        render(*expr.children()[i], out);
      }
      out += ')';
      return;
    }
    case Expr::Kind::kBinary: {
      const char* ops[] = {" + ", " - ", " * ", " / ", "^"};
      const int self = precedence(expr);
      const Expr& lhs = *expr.children()[0];
      const Expr& rhs = *expr.children()[1];
      // '-' and '/' are left-associative; '^' is right-associative.
      const bool rhs_assoc_parens =
          (expr.op() == BinaryOp::kSub || expr.op() == BinaryOp::kDiv)
              ? precedence(rhs) <= self
              : (expr.op() == BinaryOp::kPow ? false : precedence(rhs) < self);
      const bool lhs_parens = expr.op() == BinaryOp::kPow
                                  ? precedence(lhs) <= self
                                  : precedence(lhs) < self;
      child_with_parens(lhs, lhs_parens);
      out += ops[static_cast<int>(expr.op())];
      child_with_parens(rhs, rhs_assoc_parens || precedence(rhs) < self);
      return;
    }
  }
}

double apply_function(Function f, const std::vector<double>& args) {
  switch (f) {
    case Function::kExp: return std::exp(args[0]);
    case Function::kLn: return std::log(args[0]);
    case Function::kLog10: return std::log10(args[0]);
    case Function::kSqrt: return std::sqrt(args[0]);
    case Function::kAbs: return std::fabs(args[0]);
    case Function::kFloor: return std::floor(args[0]);
    case Function::kCeil: return std::ceil(args[0]);
    case Function::kMin: return *std::min_element(args.begin(), args.end());
    case Function::kMax: return *std::max_element(args.begin(), args.end());
    case Function::kHill: {
      // hill(x, k, n) = x^n / (k^n + x^n); defined as 0 at x = 0 even for
      // k = 0 so boundary states never produce NaN propensities.
      const double xn = std::pow(args[0], args[2]);
      const double kn = std::pow(args[1], args[2]);
      const double denom = kn + xn;
      return denom > 0.0 ? xn / denom : 0.0;
    }
  }
  return 0.0;
}

}  // namespace

std::vector<std::string> Expr::symbols() const {
  std::set<std::string> set;
  collect_symbols(*this, set);
  return {set.begin(), set.end()};
}

std::string Expr::to_string() const {
  std::string out;
  render(*this, out);
  return out;
}

bool Expr::equals(const Expr& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNumber:
      return value_ == other.value_;
    case Kind::kSymbol:
      return name_ == other.name_;
    case Kind::kBinary:
      if (op_ != other.op_) return false;
      break;
    case Kind::kCall:
      if (function_ != other.function_) return false;
      break;
    case Kind::kNegate:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->equals(*other.children_[i])) return false;
  }
  return true;
}

double evaluate(const Expr& expr, const Environment& env) {
  switch (expr.kind()) {
    case Expr::Kind::kNumber:
      return expr.value();
    case Expr::Kind::kSymbol: {
      const auto it = env.find(expr.name());
      if (it == env.end()) {
        throw InvalidArgument("unbound symbol in expression: " + expr.name());
      }
      return it->second;
    }
    case Expr::Kind::kNegate:
      return -evaluate(*expr.children()[0], env);
    case Expr::Kind::kBinary: {
      const double a = evaluate(*expr.children()[0], env);
      const double b = evaluate(*expr.children()[1], env);
      switch (expr.op()) {
        case BinaryOp::kAdd: return a + b;
        case BinaryOp::kSub: return a - b;
        case BinaryOp::kMul: return a * b;
        case BinaryOp::kDiv: return a / b;
        case BinaryOp::kPow: return std::pow(a, b);
      }
      return 0.0;
    }
    case Expr::Kind::kCall: {
      std::vector<double> args;
      args.reserve(expr.children().size());
      for (const auto& child : expr.children()) {
        args.push_back(evaluate(*child, env));
      }
      return apply_function(expr.function(), args);
    }
  }
  return 0.0;
}

CompiledExpr::CompiledExpr(
    const Expr& expr,
    const std::function<std::size_t(const std::string&)>& symbol_index) {
  compile(expr, symbol_index);
  std::sort(dependencies_.begin(), dependencies_.end());
  dependencies_.erase(std::unique(dependencies_.begin(), dependencies_.end()),
                      dependencies_.end());
  // Replay the program's stack effects once; evaluate() sizes its operand
  // buffer from the deepest point.
  std::size_t depth = 0;
  for (const Instruction& inst : program_) {
    switch (inst.code) {
      case OpCode::kPushConst:
      case OpCode::kPushVar:
        ++depth;
        break;
      case OpCode::kNeg:
      case OpCode::kCall1:
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kPow:
        --depth;
        break;
      case OpCode::kCallN:
        depth -= inst.index - 1;
        break;
    }
    stack_depth_ = std::max(stack_depth_, depth);
  }
}

void CompiledExpr::compile(
    const Expr& expr,
    const std::function<std::size_t(const std::string&)>& symbol_index) {
  switch (expr.kind()) {
    case Expr::Kind::kNumber:
      constants_.push_back(expr.value());
      program_.push_back({OpCode::kPushConst, constants_.size() - 1, {}});
      return;
    case Expr::Kind::kSymbol: {
      const std::size_t idx = symbol_index(expr.name());
      dependencies_.push_back(idx);
      program_.push_back({OpCode::kPushVar, idx, {}});
      return;
    }
    case Expr::Kind::kNegate:
      compile(*expr.children()[0], symbol_index);
      program_.push_back({OpCode::kNeg, 0, {}});
      return;
    case Expr::Kind::kBinary: {
      compile(*expr.children()[0], symbol_index);
      compile(*expr.children()[1], symbol_index);
      OpCode code = OpCode::kAdd;
      switch (expr.op()) {
        case BinaryOp::kAdd: code = OpCode::kAdd; break;
        case BinaryOp::kSub: code = OpCode::kSub; break;
        case BinaryOp::kMul: code = OpCode::kMul; break;
        case BinaryOp::kDiv: code = OpCode::kDiv; break;
        case BinaryOp::kPow: code = OpCode::kPow; break;
      }
      program_.push_back({code, 0, {}});
      return;
    }
    case Expr::Kind::kCall: {
      for (const auto& child : expr.children()) compile(*child, symbol_index);
      const Function f = expr.function();
      if (f == Function::kMin || f == Function::kMax || f == Function::kHill) {
        program_.push_back({OpCode::kCallN, expr.children().size(), f});
      } else {
        program_.push_back({OpCode::kCall1, 0, f});
      }
      return;
    }
  }
}

double CompiledExpr::evaluate(const std::vector<double>& values) const {
  // Every slot is written before it is read, so neither buffer is cleared.
  double local[kLocalStackDepth];
  double* stack = local;
  if (stack_depth_ > kLocalStackDepth) {
    // evaluate() never re-enters itself, so one buffer per thread serves
    // every deeper program and grows at most to the deepest one.
    thread_local std::vector<double> overflow;
    if (overflow.size() < stack_depth_) overflow.resize(stack_depth_);
    stack = overflow.data();
  }
  std::size_t top = 0;  // operands on the stack; stack[top - 1] is the top
  for (const Instruction& inst : program_) {
    switch (inst.code) {
      case OpCode::kPushConst:
        stack[top++] = constants_[inst.index];
        break;
      case OpCode::kPushVar:
        stack[top++] = values[inst.index];
        break;
      case OpCode::kNeg:
        stack[top - 1] = -stack[top - 1];
        break;
      case OpCode::kAdd:
        --top;
        stack[top - 1] += stack[top];
        break;
      case OpCode::kSub:
        --top;
        stack[top - 1] -= stack[top];
        break;
      case OpCode::kMul:
        --top;
        stack[top - 1] *= stack[top];
        break;
      case OpCode::kDiv:
        --top;
        stack[top - 1] /= stack[top];
        break;
      case OpCode::kPow:
        --top;
        stack[top - 1] = std::pow(stack[top - 1], stack[top]);
        break;
      case OpCode::kCall1: {
        // Inline unary dispatch: this path runs per SSA step, so it must not
        // allocate.
        double& x = stack[top - 1];
        switch (inst.aux) {
          case Function::kExp: x = std::exp(x); break;
          case Function::kLn: x = std::log(x); break;
          case Function::kLog10: x = std::log10(x); break;
          case Function::kSqrt: x = std::sqrt(x); break;
          case Function::kAbs: x = std::fabs(x); break;
          case Function::kFloor: x = std::floor(x); break;
          case Function::kCeil: x = std::ceil(x); break;
          default: break;  // variadic functions never compile to kCall1
        }
        break;
      }
      case OpCode::kCallN: {
        const std::size_t argc = inst.index;
        const double* args = stack + (top - argc);
        double result = 0.0;
        if (inst.aux == Function::kHill) {
          const double xn = std::pow(args[0], args[2]);
          const double kn = std::pow(args[1], args[2]);
          const double denom = kn + xn;
          result = denom > 0.0 ? xn / denom : 0.0;
        } else {
          result = args[0];
          for (std::size_t i = 1; i < argc; ++i) {
            result = inst.aux == Function::kMin ? std::min(result, args[i])
                                                : std::max(result, args[i]);
          }
        }
        top -= argc;
        stack[top++] = result;
        break;
      }
    }
  }
  return top == 0 ? 0.0 : stack[top - 1];
}

}  // namespace glva::math
