#pragma once

#include <cstddef>
#include <string>

#include "props/property.h"

namespace glva::props {

/// Deepest nesting parse_property accepts, counted two ways: the open
/// parentheses, prefix operators and right-nested `->` and `U[0,k]` on
/// the parser's stack, and the operators on any root-to-atom path of the
/// tree it returns (an atom is 0 deep, `!GFP` 1). Both bound the
/// recursion of the parser and of whatever walks the tree (monitor
/// compilation, to_string, the destructor). The deepest property in
/// docs/ and the tests nests 5 levels.
inline constexpr std::size_t kMaxPropertyDepth = 256;

/// Parses the property language of docs/PROPERTIES.md:
///
///   property := or_expr ('->' property)?          (right-associative)
///   or_expr  := and_expr ('|' and_expr)*
///   and_expr := until ('&' until)*
///   until    := unary ('U' '[0,k]' until)?        (right-associative)
///   unary    := '!' unary
///             | 'G' bounds? unary | 'F' bounds? unary
///             | 'settle' '[' k ']' unary | 'noglitch' '[' k ']' unary
///             | '(' property ')'
///             | atom
///   bounds   := '[' 0 ',' k ']'
///
/// Atoms are identifiers ([A-Za-z_][A-Za-z0-9_]*) naming digitized planes;
/// `G`, `F`, `U`, `settle`, `noglitch` are reserved. Whitespace is
/// insignificant — `G(C->F[0,80]GFP)` and `G (C -> F[0,80] GFP)` parse the
/// same, which is what lets golden-test command lines avoid quoting.
///
/// Throws glva::ParseError (with a 1-based column) on malformed input:
/// unbalanced bounds, an empty interval (hi < lo), a non-zero lower bound,
/// an unexpected token, trailing garbage, or nesting deeper than
/// kMaxPropertyDepth (refused at the first token past the cap, so a
/// deeper input costs no more than the cap).
[[nodiscard]] PropertyPtr parse_property(const std::string& text);

}  // namespace glva::props
