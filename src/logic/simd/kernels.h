#pragma once

#include "logic/simd/kernel_set.h"

/// Internal seam between the dispatcher (dispatch.cpp) and the three
/// compiles of the kernel source (kernels.inc). Each `*_kernels()`
/// factory returns its translation unit's table, or nullptr when the
/// toolchain could not compile that ISA (the TU is then an empty stub —
/// see the per-file COMPILE_OPTIONS in CMakeLists.txt).
namespace glva::logic::simd::detail {

const KernelSet* scalar_kernels() noexcept;  // never null
const KernelSet* avx2_kernels() noexcept;
const KernelSet* avx512_kernels() noexcept;

}  // namespace glva::logic::simd::detail
