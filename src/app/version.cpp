#include "app/version.h"

#include <string>

#include "logic/simd/kernel_set.h"
#include "obs/metrics.h"

// The build system injects these on this translation unit only (see
// CMakeLists.txt); fall back to visible placeholders so the file still
// compiles standalone.
#ifndef GLVA_VERSION
#define GLVA_VERSION "unknown"
#endif
#ifndef GLVA_BUILD_TYPE
#define GLVA_BUILD_TYPE "unknown"
#endif
#ifndef GLVA_CXX_COMPILER
#define GLVA_CXX_COMPILER "unknown"
#endif

namespace glva::app {

std::string version_string() { return std::string("glva ") + GLVA_VERSION; }

std::string version_report() {
  std::string compiled;
  std::string runnable;
  for (const logic::simd::IsaLevel level : logic::simd::kIsaLevels) {
    const char* name = logic::simd::isa_level_name(level);
    if (logic::simd::compiled_kernel_set(level) != nullptr) {
      compiled += compiled.empty() ? name : std::string(" ") + name;
    }
    if (logic::simd::kernel_set(level) != nullptr) {
      runnable += runnable.empty() ? name : std::string(" ") + name;
    }
  }
  std::string out;
  out += version_string() + "\n";
  out += std::string("build:       ") + GLVA_BUILD_TYPE + ", " +
         GLVA_CXX_COMPILER + ", C++20\n";
  out += "simd tiers:  " + compiled + " (compiled); " + runnable +
         " (runnable on this CPU)\n";
  out += std::string("simd active: ") +
         logic::simd::isa_level_name(logic::simd::active_level()) + "\n";
  out += std::string("metrics:     ") +
         (obs::metrics_enabled() ? "enabled"
                                 : "compiled out (GLVA_NO_METRICS)") +
         "\n";
  return out;
}

}  // namespace glva::app
