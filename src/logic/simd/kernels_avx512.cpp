#include "logic/simd/kernels.h"

// This TU is compiled with the AVX-512 F/BW/DQ/VL/VPOPCNTDQ flags when
// the toolchain supports them (per-file COMPILE_OPTIONS in
// CMakeLists.txt); otherwise it collapses to a nullptr stub. Runtime
// dispatch additionally gates on CPUID for the same five features, so a
// binary built here runs unchanged on narrower hosts.
#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

// GCC's unmasked 512-bit shift intrinsics are defined in terms of
// _mm512_undefined_epi32() and trip -Wmaybe-uninitialized on every use;
// the "uninitialized" value is the ignored merge source of an all-ones
// mask, so the warning is a false positive for this whole TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// The AVX-512 tier: 8 doubles per threshold compare straight into a
/// __mmask8 (no movemask shuffle), and VPOPCNTDQ for in-register 64-bit
/// lane popcounts — the counting kernels never leave the vector unit
/// until the final reduce.
namespace glva::logic::simd::detail {

namespace {

inline __m512i loadu(const std::uint64_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

/// Horizontal sum of the 8 lanes via an explicit store — GCC's
/// _mm512_reduce_add_epi64 goes through _mm256_undefined_si256 and trips
/// -Wmaybe-uninitialized on warnings-as-errors builds.
inline std::uint64_t reduce_add_epi64(__m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(reinterpret_cast<void*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

void avx512_pack_threshold_block(const double* samples, std::size_t words,
                                 double threshold, std::uint64_t* out) {
  const __m512d vth = _mm512_set1_pd(threshold);
  for (std::size_t w = 0; w < words; ++w) {
    const double* block = samples + w * 64;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 8) {
      // _CMP_GE_OQ: ordered quiet — NaN lanes produce 0 mask bits,
      // exactly like the scalar `>=`.
      const __mmask8 m =
          _mm512_cmp_pd_mask(_mm512_loadu_pd(block + j), vth, _CMP_GE_OQ);
      word |= static_cast<std::uint64_t>(m) << j;
    }
    out[w] = word;
  }
}

std::size_t avx512_popcount_words(const std::uint64_t* words, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(loadu(words + i)));
  }
  std::size_t count =
      static_cast<std::size_t>(reduce_add_epi64(acc));
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(_mm_popcnt_u64(words[i]));
  }
  return count;
}

std::size_t avx512_and_popcount_words(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_and_si512(loadu(a + i), loadu(b + i))));
  }
  std::size_t count =
      static_cast<std::size_t>(reduce_add_epi64(acc));
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

/// diff vector for words [i, i+8): v ^ ((v << 1) | (prev >> 63)), prev
/// loaded one word behind so each lane carries its predecessor's top bit.
inline __m512i diff8(const std::uint64_t* words, std::size_t i) {
  const __m512i v = loadu(words + i);
  const __m512i prev = loadu(words + i - 1);
  return _mm512_xor_si512(
      v, _mm512_or_si512(_mm512_slli_epi64(v, 1), _mm512_srli_epi64(prev, 63)));
}

std::size_t avx512_transition_count_words(const std::uint64_t* words,
                                          std::size_t n,
                                          std::uint64_t tail_mask) {
  std::uint64_t diff0 = words[0] ^ (words[0] << 1);
  std::uint64_t valid0 = ~std::uint64_t{1};
  if (n == 1) valid0 &= tail_mask;
  std::size_t count = static_cast<std::size_t>(_mm_popcnt_u64(diff0 & valid0));
  if (n == 1) return count;

  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 1;
  for (; i + 8 <= n - 1; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff8(words, i)));
  }
  count += static_cast<std::size_t>(reduce_add_epi64(acc));
  for (; i < n - 1; ++i) {
    const std::uint64_t diff =
        words[i] ^ ((words[i] << 1) | (words[i - 1] >> 63));
    count += static_cast<std::size_t>(_mm_popcnt_u64(diff));
  }

  const std::uint64_t diff =
      words[n - 1] ^ ((words[n - 1] << 1) | (words[n - 2] >> 63));
  count += static_cast<std::size_t>(_mm_popcnt_u64(diff & tail_mask));
  return count;
}

void avx512_combine_masks(const std::uint64_t* const* planes,
                          const std::uint64_t* invert, std::size_t inputs,
                          std::size_t words, std::uint64_t* out) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i bits = _mm512_xor_si512(
        loadu(planes[0] + w),
        _mm512_set1_epi64(static_cast<long long>(invert[0])));
    for (std::size_t i = 1; i < inputs; ++i) {
      bits = _mm512_and_si512(
          bits, _mm512_xor_si512(
                    loadu(planes[i] + w),
                    _mm512_set1_epi64(static_cast<long long>(invert[i]))));
    }
    _mm512_storeu_si512(reinterpret_cast<void*>(out + w), bits);
  }
  for (; w < words; ++w) {
    std::uint64_t bits = planes[0][w] ^ invert[0];
    for (std::size_t i = 1; i < inputs; ++i) bits &= planes[i][w] ^ invert[i];
    out[w] = bits;
  }
}

// The monitor shift kernels tolerate dst == src for the same reason the
// AVX2 tier's do: every vector block loads before it stores, the down
// forms iterate forward reading indices >= the block start, and the up
// form iterates backward reading indices <= the block end.

void avx512_or_shift_down_words(const std::uint64_t* src, std::size_t n,
                                std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const unsigned r = static_cast<unsigned>(shift % 64);
  if (q >= n) return;
  const std::size_t last = n - q;
  std::size_t i = 0;
  if (r == 0) {
    for (; i + 8 <= last; i += 8) {
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                          _mm512_or_si512(loadu(dst + i), loadu(src + i + q)));
    }
    for (; i < last; ++i) dst[i] |= src[i + q];
  } else {
    for (; i + 9 <= last; i += 8) {
      const __m512i v =
          _mm512_or_si512(_mm512_srli_epi64(loadu(src + i + q), r),
                          _mm512_slli_epi64(loadu(src + i + q + 1), 64 - r));
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                          _mm512_or_si512(loadu(dst + i), v));
    }
    for (; i < last; ++i) {
      std::uint64_t v = src[i + q] >> r;
      if (i + q + 1 < n) v |= src[i + q + 1] << (64 - r);
      dst[i] |= v;
    }
  }
}

void avx512_and_shift_down_words(const std::uint64_t* src, std::size_t n,
                                 std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const unsigned r = static_cast<unsigned>(shift % 64);
  if (q >= n) return;
  const std::size_t last = n - q;
  std::size_t i = 0;
  if (r == 0) {
    for (; i + 8 <= last; i += 8) {
      _mm512_storeu_si512(
          reinterpret_cast<void*>(dst + i),
          _mm512_and_si512(loadu(dst + i), loadu(src + i + q)));
    }
    for (; i < last; ++i) dst[i] &= src[i + q];
  } else {
    for (; i + 9 <= last; i += 8) {
      const __m512i v =
          _mm512_or_si512(_mm512_srli_epi64(loadu(src + i + q), r),
                          _mm512_slli_epi64(loadu(src + i + q + 1), 64 - r));
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                          _mm512_and_si512(loadu(dst + i), v));
    }
    for (; i < last; ++i) {
      const std::uint64_t high =
          i + q + 1 < n ? src[i + q + 1] : ~std::uint64_t{0};
      dst[i] &= (src[i + q] >> r) | (high << (64 - r));
    }
  }
}

void avx512_or_shift_up_words(const std::uint64_t* src, std::size_t n,
                              std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const unsigned r = static_cast<unsigned>(shift % 64);
  if (q >= n) return;
  std::size_t i = n;
  if (r == 0) {
    while (i >= q + 8) {
      i -= 8;
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                          _mm512_or_si512(loadu(dst + i), loadu(src + i - q)));
    }
    while (i-- > q) dst[i] |= src[i - q];
  } else {
    while (i >= q + 9) {
      i -= 8;
      const __m512i v =
          _mm512_or_si512(_mm512_slli_epi64(loadu(src + i - q), r),
                          _mm512_srli_epi64(loadu(src + i - q - 1), 64 - r));
      _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                          _mm512_or_si512(loadu(dst + i), v));
    }
    while (i-- > q) {
      std::uint64_t v = src[i - q] << r;
      if (i > q) v |= src[i - q - 1] >> (64 - r);
      dst[i] |= v;
    }
  }
}

}  // namespace

const KernelSet* avx512_kernels() noexcept {
  static constexpr KernelSet kSet = {
      IsaLevel::kAVX512,
      "avx512",
      &avx512_pack_threshold_block,
      &avx512_popcount_words,
      &avx512_and_popcount_words,
      &avx512_transition_count_words,
      &avx512_combine_masks,
      &avx512_or_shift_down_words,
      &avx512_and_shift_down_words,
      &avx512_or_shift_up_words,
  };
  return &kSet;
}

}  // namespace glva::logic::simd::detail

#else  // TU built without the AVX-512 flags

namespace glva::logic::simd::detail {
const KernelSet* avx512_kernels() noexcept { return nullptr; }
}  // namespace glva::logic::simd::detail

#endif
