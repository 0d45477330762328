#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// A tiny declarative command-line parser for the example and bench
/// binaries (`--flag`, `--key value`, `--key=value`).
namespace glva::util {

class CliParser {
public:
  /// Declare an option with a default value and help text. Options are
  /// stringly-typed; use the typed getters after parse().
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Declare a boolean flag (present → true).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Throws glva::InvalidArgument on unknown options or a
  /// missing value. Returns false if `--help` was requested (help text is
  /// available via help()).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  /// get_int() that also throws glva::InvalidArgument, naming the option,
  /// for a negative value (which a cast would wrap to a huge one).
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional (non-option) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Formatted help text listing all declared options.
  [[nodiscard]] std::string help(const std::string& program) const;

private:
  struct Option {
    std::string value;
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace glva::util
