#include "logic/simd/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

/// The SSE2 tier — x86-64 baseline, so it is always runnable wherever it
/// compiles. Only the threshold packer gains from SSE2 (cmpge + movmskpd,
/// two doubles per compare); SSE2 has no popcount instruction, so the
/// counting kernels reuse the scalar entries.
namespace glva::logic::simd::detail {

namespace {

void sse2_pack_threshold_block(const double* samples, std::size_t words,
                               double threshold, std::uint64_t* out) {
  const __m128d vth = _mm_set1_pd(threshold);
  for (std::size_t w = 0; w < words; ++w) {
    const double* block = samples + w * 64;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 2) {
      // cmpge is the ordered compare: NaN produces a zero mask, exactly
      // like the scalar `>=`.
      const int pair =
          _mm_movemask_pd(_mm_cmpge_pd(_mm_loadu_pd(block + j), vth));
      word |= static_cast<std::uint64_t>(pair) << j;
    }
    out[w] = word;
  }
}

}  // namespace

const KernelSet* sse2_kernels() noexcept {
  static constexpr KernelSet kSet = {
      IsaLevel::kSSE2,
      "sse2",
      &sse2_pack_threshold_block,
      &scalar_popcount_words,
      &scalar_and_popcount_words,
      &scalar_transition_count_words,
      &scalar_combine_masks,
      &scalar_or_shift_down_words,
      &scalar_and_shift_down_words,
      &scalar_or_shift_up_words,
  };
  return &kSet;
}

}  // namespace glva::logic::simd::detail

#else  // !defined(__SSE2__)

namespace glva::logic::simd::detail {
const KernelSet* sse2_kernels() noexcept { return nullptr; }
}  // namespace glva::logic::simd::detail

#endif
