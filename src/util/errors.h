#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace glva {

/// Root of the GLVA exception hierarchy. All errors thrown by the library
/// derive from this type so callers can catch library failures uniformly.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

/// A malformed input document (XML syntax, SBML structure, MathML, ...).
class ParseError : public Error {
public:
  ParseError(const std::string& what_arg, std::size_t line, std::size_t column)
      : Error(what_arg + " (line " + std::to_string(line) + ", column " +
              std::to_string(column) + ")"),
        line_(line),
        column_(column) {}

  explicit ParseError(const std::string& what_arg)
      : Error(what_arg), line_(0), column_(0) {}

  /// 1-based line of the offending input, or 0 when unknown.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  /// 1-based column of the offending input, or 0 when unknown.
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
  std::size_t line_;
  std::size_t column_;
};

/// A structurally valid document that violates a semantic rule
/// (e.g. a reaction referencing an undeclared species).
class ValidationError : public Error {
public:
  using Error::Error;
};

/// An operation invoked with arguments outside its domain
/// (e.g. a negative threshold, an empty trace).
class InvalidArgument : public Error {
public:
  using Error::Error;
};

/// A simulation that cannot proceed (e.g. a kinetic law evaluating to a
/// negative propensity).
class SimulationError : public Error {
public:
  using Error::Error;
};

/// A trace store that cannot be written or read back (unopenable spill
/// file, bad `.glvt` magic, truncated chunk, corrupt section payload).
class StorageError : public Error {
public:
  using Error::Error;
};

/// Throw InvalidArgument("<what> must be finite and > 0, got <value>")
/// unless `value` is finite and positive. A NaN duration or period would
/// otherwise pass a plain `<= 0` test and never end a sampling loop.
inline void require_finite_positive(double value, const std::string& what) {
  if (!std::isfinite(value) || value <= 0.0) {
    throw InvalidArgument(what + " must be finite and > 0, got " +
                          std::to_string(value));
  }
}

}  // namespace glva
