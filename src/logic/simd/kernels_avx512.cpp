#include "logic/simd/kernels.h"

// The AVX-512 compile of the kernel source: this TU gets the AVX-512
// F/BW/DQ/VL/VPOPCNTDQ flags when the toolchain supports them (per-file
// COMPILE_OPTIONS in CMakeLists.txt); otherwise it collapses to a
// nullptr stub. Dispatch gates on CPUID for the same five features, so a
// binary built here runs unchanged on narrower hosts.
#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include "logic/simd/kernels.inc"

namespace glva::logic::simd::detail {

const KernelSet* avx512_kernels() noexcept {
  static constexpr KernelSet kSet =
      make_kernel_set(IsaLevel::kAVX512, "avx512");
  return &kSet;
}

}  // namespace glva::logic::simd::detail

#else

namespace glva::logic::simd::detail {
const KernelSet* avx512_kernels() noexcept { return nullptr; }
}  // namespace glva::logic::simd::detail

#endif
