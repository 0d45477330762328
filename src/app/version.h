#pragma once

#include <string>

/// Build identification for operability: the `glva version` command and
/// the daemon's `status`/`version` responses report the same lines, so a
/// load-bench record or a bug report always carries the environment it
/// was measured in (version, build type, compiler, SIMD tiers).
namespace glva::app {

/// "glva <semver>" (e.g. "glva 0.1.0").
[[nodiscard]] std::string version_string();

/// Multi-line report: version, build configuration (build type, compiler,
/// C++ standard), the SIMD kernel variants compiled in / runnable on
/// this CPU, and the active one (the widest runnable).
[[nodiscard]] std::string version_report();

}  // namespace glva::app
