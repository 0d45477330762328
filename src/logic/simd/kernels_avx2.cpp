#include "logic/simd/kernels.h"

// The AVX2 compile of the kernel source: this TU gets -mavx2 -mpopcnt
// when the toolchain supports them (per-file COMPILE_OPTIONS in
// CMakeLists.txt); otherwise it collapses to a nullptr stub and dispatch
// skips the variant.
#if defined(__AVX2__) && defined(__POPCNT__)

#include "logic/simd/kernels.inc"

namespace glva::logic::simd::detail {

const KernelSet* avx2_kernels() noexcept {
  static constexpr KernelSet kSet = make_kernel_set(IsaLevel::kAVX2, "avx2");
  return &kSet;
}

}  // namespace glva::logic::simd::detail

#else

namespace glva::logic::simd::detail {
const KernelSet* avx2_kernels() noexcept { return nullptr; }
}  // namespace glva::logic::simd::detail

#endif
