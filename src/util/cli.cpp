#include "util/cli.h"

#include "util/errors.h"
#include "util/string_util.h"

namespace glva::util {

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{default_value, default_value, help, false};
  order_.push_back(name);
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{"false", "false", help, true};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(name);
    if (it == options_.end()) {
      throw InvalidArgument("unknown option: --" + name);
    }
    if (it->second.is_flag) {
      it->second.value = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          throw InvalidArgument("missing value for option: --" + name);
        }
        value = argv[++i];
      }
      it->second.value = value;
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) throw InvalidArgument("undeclared option: " + name);
  return it->second.value;
}

double CliParser::get_double(const std::string& name) const {
  const auto v = parse_double(get(name));
  if (!v) throw InvalidArgument("option --" + name + " expects a number");
  return *v;
}

long long CliParser::get_int(const std::string& name) const {
  const auto v = parse_int(get(name));
  if (!v) throw InvalidArgument("option --" + name + " expects an integer");
  return *v;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const long long v = get_int(name);
  if (v < 0) {
    throw InvalidArgument("option --" + name +
                          " expects a non-negative integer, got " +
                          std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

bool CliParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

std::string CliParser::help(const std::string& program) const {
  std::string out = "usage: " + program + " [options]\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    out += "  --" + name;
    if (!opt.is_flag) out += " <value>";
    out += "\n      " + opt.help;
    if (!opt.is_flag && !opt.default_value.empty()) {
      out += " (default: " + opt.default_value + ")";
    }
    out += '\n';
  }
  return out;
}

}  // namespace glva::util
