#include "props/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>

#include "util/errors.h"

namespace glva::props {

namespace {

enum class TokenKind : std::uint8_t {
  kEnd,
  kIdent,    // identifier or keyword; text carries the spelling
  kNumber,   // decimal integer; value carries it
  kNot,      // !
  kAnd,      // &
  kOr,       // |
  kImplies,  // ->
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  std::size_t value = 0;
  std::size_t column = 0;  // 1-based start of the token
};

[[noreturn]] void fail(const std::string& message, std::size_t column) {
  throw ParseError("property: " + message, 1, column);
}

/// What a token looks like in an error message.
std::string describe(const Token& t) {
  switch (t.kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kNumber:
      return std::string("'").append(std::to_string(t.value)).append("'");
    default:
      return std::string("'").append(t.text).append("'");
  }
}

class Lexer {
public:
  explicit Lexer(const std::string& text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    current_.column = pos_ + 1;
    if (pos_ >= text_.size()) return;  // kEnd
    const char c = text_[pos_];
    if (c == '_' || std::isalpha(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (text_[pos_] == '_' ||
              std::isalnum(static_cast<unsigned char>(text_[pos_])))) {
        ++pos_;
      }
      current_.kind = TokenKind::kIdent;
      current_.text = text_.substr(start, pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t value = 0;
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        const std::size_t digit =
            static_cast<std::size_t>(text_[pos_] - '0');
        if (value > (SIZE_MAX - digit) / 10) {
          fail("bound out of range", start + 1);
        }
        value = value * 10 + digit;
        ++pos_;
      }
      current_.kind = TokenKind::kNumber;
      current_.value = value;
      current_.text = text_.substr(start, pos_ - start);
      return;
    }
    switch (c) {
      case '!':
        single(TokenKind::kNot);
        return;
      case '&':
        single(TokenKind::kAnd);
        return;
      case '|':
        single(TokenKind::kOr);
        return;
      case '(':
        single(TokenKind::kLParen);
        return;
      case ')':
        single(TokenKind::kRParen);
        return;
      case '[':
        single(TokenKind::kLBracket);
        return;
      case ']':
        single(TokenKind::kRBracket);
        return;
      case ',':
        single(TokenKind::kComma);
        return;
      case '-':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
          current_.kind = TokenKind::kImplies;
          current_.text = "->";
          pos_ += 2;
          return;
        }
        fail("unexpected character '-' (did you mean '->'?)", pos_ + 1);
      default:
        fail(std::string("unexpected character '") + c + "'", pos_ + 1);
    }
  }

  /// A one-character token: the character at pos_.
  void single(TokenKind kind) {
    current_.kind = kind;
    current_.text.assign(1, text_[pos_]);
    ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  Token current_;
};

[[noreturn]] void fail_too_deep(std::size_t column) {
  fail("nested deeper than " + std::to_string(kMaxPropertyDepth) + " levels",
       column);
}

/// A parsed subtree and its depth: the operators on its longest
/// root-to-atom path.
struct Parsed {
  PropertyPtr node;
  std::size_t depth = 0;
};

/// `node`, one operator above children whose deepest is `below` deep;
/// refused at `column` past kMaxPropertyDepth.
Parsed over(PropertyPtr node, std::size_t below, std::size_t column) {
  if (below >= kMaxPropertyDepth) fail_too_deep(column);
  return {std::move(node), below + 1};
}

class Parser {
public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  PropertyPtr parse() {
    Parsed p = parse_implies();
    const Token& t = lexer_.peek();
    if (t.kind != TokenKind::kEnd) {
      fail("trailing input after property, starting at " + describe(t),
           t.column);
    }
    return std::move(p.node);
  }

private:
  /// One level of the parser's own recursion, held while it lasts;
  /// refused at `column` past kMaxPropertyDepth.
  class Nest {
  public:
    Nest(std::size_t& depth, std::size_t column) : depth_(depth) {
      if (depth_ >= kMaxPropertyDepth) fail_too_deep(column);
      ++depth_;
    }
    ~Nest() { --depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

  private:
    std::size_t& depth_;
  };

  // property := or_expr ('->' property)?   — right-associative.
  Parsed parse_implies() {
    Parsed left = parse_or();
    if (lexer_.peek().kind == TokenKind::kImplies) {
      const Token op = lexer_.take();
      const Nest nest(nesting_, op.column);
      Parsed right = parse_implies();
      return over(make_implies(std::move(left.node), std::move(right.node)),
                  std::max(left.depth, right.depth), op.column);
    }
    return left;
  }

  Parsed parse_or() {
    Parsed left = parse_and();
    while (lexer_.peek().kind == TokenKind::kOr) {
      const Token op = lexer_.take();
      Parsed right = parse_and();
      left = over(make_or(std::move(left.node), std::move(right.node)),
                  std::max(left.depth, right.depth), op.column);
    }
    return left;
  }

  Parsed parse_and() {
    Parsed left = parse_until();
    while (lexer_.peek().kind == TokenKind::kAnd) {
      const Token op = lexer_.take();
      Parsed right = parse_until();
      left = over(make_and(std::move(left.node), std::move(right.node)),
                  std::max(left.depth, right.depth), op.column);
    }
    return left;
  }

  // until := unary ('U' '[0,k]' until)?   — right-associative.
  Parsed parse_until() {
    Parsed left = parse_unary();
    const Token& t = lexer_.peek();
    if (t.kind == TokenKind::kIdent && t.text == "U") {
      const Token op = lexer_.take();
      if (lexer_.peek().kind != TokenKind::kLBracket) {
        fail("'U' requires explicit bounds: p U[0,k] q", op.column);
      }
      const std::size_t k = parse_interval();
      const Nest nest(nesting_, op.column);
      Parsed right = parse_until();
      return over(
          make_until_bounded(std::move(left.node), k, std::move(right.node)),
          std::max(left.depth, right.depth), op.column);
    }
    return left;
  }

  Parsed parse_unary() {
    const Token t = lexer_.take();
    switch (t.kind) {
      case TokenKind::kNot: {
        const Nest nest(nesting_, t.column);
        Parsed p = parse_unary();
        return over(make_not(std::move(p.node)), p.depth, t.column);
      }
      case TokenKind::kLParen: {
        const Nest nest(nesting_, t.column);
        Parsed inner = parse_implies();
        const Token close = lexer_.take();
        if (close.kind != TokenKind::kRParen) {
          fail("expected ')' to close '(', got " + describe(close),
               close.column);
        }
        return inner;
      }
      case TokenKind::kIdent:
        if (t.text == "G" || t.text == "F") {
          const bool globally = t.text == "G";
          const bool bounded = lexer_.peek().kind == TokenKind::kLBracket;
          const std::size_t k = bounded ? parse_interval() : 0;
          const Nest nest(nesting_, t.column);
          Parsed p = parse_unary();
          PropertyPtr node =
              bounded ? (globally ? make_globally_bounded(k, std::move(p.node))
                                  : make_eventually_bounded(k, std::move(p.node)))
                      : (globally ? make_globally(std::move(p.node))
                                  : make_eventually(std::move(p.node)));
          return over(std::move(node), p.depth, t.column);
        }
        if (t.text == "settle" || t.text == "noglitch") {
          const std::size_t k = parse_single_bound(t);
          const Nest nest(nesting_, t.column);
          Parsed p = parse_unary();
          return over(t.text == "settle" ? make_settle(k, std::move(p.node))
                                         : make_noglitch(k, std::move(p.node)),
                      p.depth, t.column);
        }
        if (t.text == "U") {
          fail("'U' is an infix operator and cannot begin a property",
               t.column);
        }
        return {make_atom(t.text), 0};
      default:
        fail("expected an atom, a prefix operator, or '(', got " +
                 describe(t),
             t.column);
    }
  }

  /// Parses '[lo,hi]' after G/F/U, enforcing lo == 0, and returns hi.
  std::size_t parse_interval() {
    const Token open = lexer_.take();  // already peeked as '['
    const Token lo = lexer_.take();
    if (lo.kind != TokenKind::kNumber) {
      fail("expected a number as the interval lower bound, got " +
               describe(lo),
           lo.column);
    }
    const Token comma = lexer_.take();
    if (comma.kind != TokenKind::kComma) {
      fail("expected ',' between interval bounds, got " + describe(comma),
           comma.column);
    }
    const Token hi = lexer_.take();
    if (hi.kind != TokenKind::kNumber) {
      fail("expected a number as the interval upper bound, got " +
               describe(hi),
           hi.column);
    }
    const Token close = lexer_.take();
    if (close.kind != TokenKind::kRBracket) {
      fail("unbalanced bounds: expected ']', got " + describe(close),
           close.column);
    }
    if (hi.value < lo.value) {
      fail("empty interval [" + std::to_string(lo.value) + "," +
               std::to_string(hi.value) + "]",
           open.column);
    }
    if (lo.value != 0) {
      fail("only [0,k] intervals are supported (lower bound must be 0)",
           lo.column);
    }
    return hi.value;
  }

  /// Parses '[k]' after settle/noglitch and returns k.
  std::size_t parse_single_bound(const Token& op) {
    const Token open = lexer_.take();
    if (open.kind != TokenKind::kLBracket) {
      fail("'" + op.text + "' requires a bound: " + op.text + "[k]",
           op.column);
    }
    const Token k = lexer_.take();
    if (k.kind != TokenKind::kNumber) {
      fail("expected a number as the '" + op.text + "' bound, got " +
               describe(k),
           k.column);
    }
    const Token close = lexer_.take();
    if (close.kind != TokenKind::kRBracket) {
      fail("unbalanced bounds: expected ']', got " + describe(close),
           close.column);
    }
    return k.value;
  }

  Lexer lexer_;
  std::size_t nesting_ = 0;  ///< Nest levels currently held
};

}  // namespace

PropertyPtr parse_property(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace glva::props
