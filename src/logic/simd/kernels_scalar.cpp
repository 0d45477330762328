#include "logic/simd/kernels.inc"

// The baseline compile of the kernel source: no ISA flags beyond the
// target's default (SSE2 on x86-64), always runnable.
namespace glva::logic::simd::detail {

const KernelSet* scalar_kernels() noexcept {
  static constexpr KernelSet kSet =
      make_kernel_set(IsaLevel::kScalar, "scalar");
  return &kSet;
}

}  // namespace glva::logic::simd::detail
