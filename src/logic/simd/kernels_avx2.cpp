#include "logic/simd/kernels.h"

// This TU is compiled with -mavx2 -mpopcnt when the toolchain supports
// them (see the per-file COMPILE_OPTIONS in CMakeLists.txt); otherwise it
// collapses to a nullptr stub and dispatch skips the tier.
#if defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

/// The AVX2 tier: 4 doubles per threshold compare, hardware POPCNT for
/// the counting kernels (every AVX2 CPU has it), and 4-word vector
/// passes for the diff/mask kernels with the popcount taken on the
/// extracted lanes.
namespace glva::logic::simd::detail {

namespace {

inline std::size_t popcount256(__m256i v) {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return static_cast<std::size_t>(_mm_popcnt_u64(lanes[0])) +
         static_cast<std::size_t>(_mm_popcnt_u64(lanes[1])) +
         static_cast<std::size_t>(_mm_popcnt_u64(lanes[2])) +
         static_cast<std::size_t>(_mm_popcnt_u64(lanes[3]));
}

inline __m256i loadu(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

void avx2_pack_threshold_block(const double* samples, std::size_t words,
                               double threshold, std::uint64_t* out) {
  const __m256d vth = _mm256_set1_pd(threshold);
  for (std::size_t w = 0; w < words; ++w) {
    const double* block = samples + w * 64;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 4) {
      // _CMP_GE_OQ: ordered quiet greater-or-equal — NaN produces a zero
      // mask, exactly like the scalar `>=`.
      const int quad = _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_loadu_pd(block + j), vth, _CMP_GE_OQ));
      word |= static_cast<std::uint64_t>(quad) << j;
    }
    out[w] = word;
  }
}

std::size_t avx2_popcount_words(const std::uint64_t* words, std::size_t n) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) count += popcount256(loadu(words + i));
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(_mm_popcnt_u64(words[i]));
  }
  return count;
}

std::size_t avx2_and_popcount_words(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    count += popcount256(_mm256_and_si256(loadu(a + i), loadu(b + i)));
  }
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

/// diff vector for words [i, i+4): v ^ ((v << 1) | (prev >> 63)), where
/// prev is the unaligned load one word behind — each lane sees its own
/// predecessor's top bit, so the cross-word carry chain vectorizes.
inline __m256i diff4(const std::uint64_t* words, std::size_t i) {
  const __m256i v = loadu(words + i);
  const __m256i prev = loadu(words + i - 1);
  return _mm256_xor_si256(
      v, _mm256_or_si256(_mm256_slli_epi64(v, 1), _mm256_srli_epi64(prev, 63)));
}

std::size_t avx2_transition_count_words(const std::uint64_t* words,
                                        std::size_t n,
                                        std::uint64_t tail_mask) {
  // Word 0 (no predecessor word; sample 0 has no predecessor sample).
  std::uint64_t diff0 = words[0] ^ (words[0] << 1);
  std::uint64_t valid0 = ~std::uint64_t{1};
  if (n == 1) valid0 &= tail_mask;
  std::size_t count = static_cast<std::size_t>(_mm_popcnt_u64(diff0 & valid0));
  if (n == 1) return count;

  // Interior words [1, n-1): full 64-bit diffs, vectorized.
  std::size_t i = 1;
  for (; i + 4 <= n - 1; i += 4) count += popcount256(diff4(words, i));
  for (; i < n - 1; ++i) {
    const std::uint64_t diff =
        words[i] ^ ((words[i] << 1) | (words[i - 1] >> 63));
    count += static_cast<std::size_t>(_mm_popcnt_u64(diff));
  }

  // Last word: mask off the zero tail.
  const std::uint64_t diff =
      words[n - 1] ^ ((words[n - 1] << 1) | (words[n - 2] >> 63));
  count += static_cast<std::size_t>(_mm_popcnt_u64(diff & tail_mask));
  return count;
}

void avx2_combine_masks(const std::uint64_t* const* planes,
                        const std::uint64_t* invert, std::size_t inputs,
                        std::size_t words, std::uint64_t* out) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i bits =
        _mm256_xor_si256(loadu(planes[0] + w), _mm256_set1_epi64x(
                             static_cast<long long>(invert[0])));
    for (std::size_t i = 1; i < inputs; ++i) {
      bits = _mm256_and_si256(
          bits, _mm256_xor_si256(loadu(planes[i] + w),
                                 _mm256_set1_epi64x(
                                     static_cast<long long>(invert[i]))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), bits);
  }
  for (; w < words; ++w) {
    std::uint64_t bits = planes[0][w] ^ invert[0];
    for (std::size_t i = 1; i < inputs; ++i) bits &= planes[i][w] ^ invert[i];
    out[w] = bits;
  }
}

// The monitor shift kernels below tolerate dst == src because every
// vector block loads before it stores and the other indices a block reads
// have not been written yet: the down forms iterate forward and read
// indices >= the block start, the up form iterates backward and reads
// indices <= the block end.

void avx2_or_shift_down_words(const std::uint64_t* src, std::size_t n,
                              std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const int r = static_cast<int>(shift % 64);
  if (q >= n) return;
  const std::size_t last = n - q;
  std::size_t i = 0;
  if (r == 0) {
    for (; i + 4 <= last; i += 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(loadu(dst + i), loadu(src + i + q)));
    }
    for (; i < last; ++i) dst[i] |= src[i + q];
  } else {
    // The vector body reads src[i+q .. i+q+4], so it stops one block
    // early (i + q + 4 <= n - 1); the scalar tail handles the edge.
    for (; i + 5 <= last; i += 4) {
      const __m256i v =
          _mm256_or_si256(_mm256_srli_epi64(loadu(src + i + q), r),
                          _mm256_slli_epi64(loadu(src + i + q + 1), 64 - r));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(loadu(dst + i), v));
    }
    for (; i < last; ++i) {
      std::uint64_t v = src[i + q] >> r;
      if (i + q + 1 < n) v |= src[i + q + 1] << (64 - r);
      dst[i] |= v;
    }
  }
}

void avx2_and_shift_down_words(const std::uint64_t* src, std::size_t n,
                               std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const int r = static_cast<int>(shift % 64);
  if (q >= n) return;
  const std::size_t last = n - q;
  std::size_t i = 0;
  if (r == 0) {
    for (; i + 4 <= last; i += 4) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + i),
          _mm256_and_si256(loadu(dst + i), loadu(src + i + q)));
    }
    for (; i < last; ++i) dst[i] &= src[i + q];
  } else {
    for (; i + 5 <= last; i += 4) {
      const __m256i v =
          _mm256_or_si256(_mm256_srli_epi64(loadu(src + i + q), r),
                          _mm256_slli_epi64(loadu(src + i + q + 1), 64 - r));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_and_si256(loadu(dst + i), v));
    }
    for (; i < last; ++i) {
      const std::uint64_t high =
          i + q + 1 < n ? src[i + q + 1] : ~std::uint64_t{0};
      dst[i] &= (src[i + q] >> r) | (high << (64 - r));
    }
  }
}

void avx2_or_shift_up_words(const std::uint64_t* src, std::size_t n,
                            std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const int r = static_cast<int>(shift % 64);
  if (q >= n) return;
  std::size_t i = n;
  if (r == 0) {
    while (i >= q + 4) {
      i -= 4;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(loadu(dst + i), loadu(src + i - q)));
    }
    while (i-- > q) dst[i] |= src[i - q];
  } else {
    // The vector body reads src[i-q-1 .. i+3-q], so the lowest block
    // start stays at q + 1; the scalar tail handles the edge.
    while (i >= q + 5) {
      i -= 4;
      const __m256i v =
          _mm256_or_si256(_mm256_slli_epi64(loadu(src + i - q), r),
                          _mm256_srli_epi64(loadu(src + i - q - 1), 64 - r));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(loadu(dst + i), v));
    }
    while (i-- > q) {
      std::uint64_t v = src[i - q] << r;
      if (i > q) v |= src[i - q - 1] >> (64 - r);
      dst[i] |= v;
    }
  }
}

}  // namespace

const KernelSet* avx2_kernels() noexcept {
  static constexpr KernelSet kSet = {
      IsaLevel::kAVX2,
      "avx2",
      &avx2_pack_threshold_block,
      &avx2_popcount_words,
      &avx2_and_popcount_words,
      &avx2_transition_count_words,
      &avx2_combine_masks,
      &avx2_or_shift_down_words,
      &avx2_and_shift_down_words,
      &avx2_or_shift_up_words,
  };
  return &kSet;
}

}  // namespace glva::logic::simd::detail

#else  // TU built without -mavx2 -mpopcnt

namespace glva::logic::simd::detail {
const KernelSet* avx2_kernels() noexcept { return nullptr; }
}  // namespace glva::logic::simd::detail

#endif
