#include "logic/simd/kernels.h"
#include "obs/metrics.h"

namespace glva::logic::simd {

namespace {

/// The widest runnable variant, mirrored into the metrics registry so a
/// stats snapshot says which variant produced it (0 = scalar, 2 = avx2,
/// 3 = avx512: the IsaLevel values).
const KernelSet& resolve() {
  const KernelSet* widest = detail::scalar_kernels();
  for (const IsaLevel level : kIsaLevels) {
    if (const KernelSet* set = kernel_set(level)) widest = set;
  }
  obs::gauge("simd.active_tier").set(static_cast<std::int64_t>(widest->level));
  return *widest;
}

}  // namespace

const char* isa_level_name(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kAVX2: return "avx2";
    case IsaLevel::kAVX512: return "avx512";
  }
  return "unknown";
}

bool cpu_supports(IsaLevel level) noexcept {
  if (level == IsaLevel::kScalar) return true;
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  switch (level) {
    case IsaLevel::kScalar:
      return true;
    case IsaLevel::kAVX2:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("popcnt") != 0;
    case IsaLevel::kAVX512:
      // Gate on every feature the AVX-512 TU is compiled with: the
      // compiler is free to use any of them anywhere in that TU.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
#endif
  return false;
}

const KernelSet* compiled_kernel_set(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kScalar: return detail::scalar_kernels();
    case IsaLevel::kAVX2: return detail::avx2_kernels();
    case IsaLevel::kAVX512: return detail::avx512_kernels();
  }
  return nullptr;
}

const KernelSet* kernel_set(IsaLevel level) noexcept {
  const KernelSet* set = compiled_kernel_set(level);
  return (set != nullptr && cpu_supports(level)) ? set : nullptr;
}

std::vector<const KernelSet*> available_kernel_sets() {
  std::vector<const KernelSet*> sets;
  for (const IsaLevel level : kIsaLevels) {
    if (const KernelSet* set = kernel_set(level)) sets.push_back(set);
  }
  return sets;
}

const KernelSet& active() {
  static const KernelSet& set = resolve();
  return set;
}

IsaLevel active_level() { return active().level; }

}  // namespace glva::logic::simd
