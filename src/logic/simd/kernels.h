#pragma once

#include "logic/simd/kernel_set.h"

/// Internal seam between the dispatcher (dispatch.cpp) and the per-ISA
/// translation units. Each `*_kernels()` factory returns the TU's table,
/// or nullptr when the toolchain could not compile that ISA (the TU is
/// then an empty stub — see the CMake per-file COMPILE_OPTIONS). The
/// scalar entry points are exported individually so wider tiers can
/// reuse them for kernels their ISA does not accelerate (e.g. SSE2 has
/// no popcount instruction).
namespace glva::logic::simd::detail {

const KernelSet* scalar_kernels() noexcept;  // never null
const KernelSet* sse2_kernels() noexcept;
const KernelSet* avx2_kernels() noexcept;
const KernelSet* avx512_kernels() noexcept;

// The scalar reference implementations (kernels_scalar.cpp).
void scalar_pack_threshold_block(const double* samples, std::size_t words,
                                 double threshold, std::uint64_t* out);
std::size_t scalar_popcount_words(const std::uint64_t* words, std::size_t n);
std::size_t scalar_and_popcount_words(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n);
std::size_t scalar_transition_count_words(const std::uint64_t* words,
                                          std::size_t n,
                                          std::uint64_t tail_mask);
void scalar_combine_masks(const std::uint64_t* const* planes,
                          const std::uint64_t* invert, std::size_t inputs,
                          std::size_t words, std::uint64_t* out);
void scalar_or_shift_down_words(const std::uint64_t* src, std::size_t n,
                                std::size_t shift, std::uint64_t* dst);
void scalar_and_shift_down_words(const std::uint64_t* src, std::size_t n,
                                 std::size_t shift, std::uint64_t* dst);
void scalar_or_shift_up_words(const std::uint64_t* src, std::size_t n,
                              std::size_t shift, std::uint64_t* dst);

}  // namespace glva::logic::simd::detail
