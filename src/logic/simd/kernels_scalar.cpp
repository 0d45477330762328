#include <bit>
#include <cstring>

#include "logic/simd/kernels.h"

/// The scalar reference tier: portable C++ only, no intrinsics. Every
/// wider tier is fuzz-pinned bit-identical to these functions, so this
/// file is the executable specification of the kernel contracts.
namespace glva::logic::simd::detail {

void scalar_pack_threshold_block(const double* samples, std::size_t words,
                                 double threshold, std::uint64_t* out) {
  for (std::size_t w = 0; w < words; ++w) {
    // Compare into a byte buffer the autovectorizer handles, then gather
    // each 8-byte group into 8 bits with one multiply (magic
    // 0x0102040810204080: byte t of the group lands at bit 56+t of the
    // product). NaN compares false, exactly like every other tier.
    const double* block = samples + w * 64;
    unsigned char bytes[64];
    for (std::size_t j = 0; j < 64; ++j) bytes[j] = block[j] >= threshold;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 8; ++g) {
      std::uint64_t group;
      std::memcpy(&group, bytes + g * 8, sizeof group);
      word |= ((group * 0x0102040810204080ULL) >> 56) << (g * 8);
    }
    out[w] = word;
  }
}

std::size_t scalar_popcount_words(const std::uint64_t* words, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return count;
}

std::size_t scalar_and_popcount_words(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

std::size_t scalar_transition_count_words(const std::uint64_t* words,
                                          std::size_t n,
                                          std::uint64_t tail_mask) {
  std::size_t count = 0;
  std::uint64_t carry = 0;  // bit 0 := last bit of the previous word
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t word = words[w];
    // diff bit k set iff sample 64w+k differs from its predecessor.
    const std::uint64_t diff = word ^ ((word << 1) | carry);
    std::uint64_t valid = ~std::uint64_t{0};
    if (w == 0) valid &= ~std::uint64_t{1};  // sample 0: no predecessor
    if (w + 1 == n) valid &= tail_mask;      // exclude the zero tail
    count += static_cast<std::size_t>(std::popcount(diff & valid));
    carry = word >> 63;
  }
  return count;
}

void scalar_combine_masks(const std::uint64_t* const* planes,
                          const std::uint64_t* invert, std::size_t inputs,
                          std::size_t words, std::uint64_t* out) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = planes[0][w] ^ invert[0];
    for (std::size_t i = 1; i < inputs; ++i) {
      bits &= planes[i][w] ^ invert[i];
    }
    out[w] = bits;
  }
}

void scalar_or_shift_down_words(const std::uint64_t* src, std::size_t n,
                                std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;  // the whole view is past the end: OR with zero
  const std::size_t last = n - q;  // i < last has src[i + q] in range
  if (r == 0) {
    // Forward iteration is what makes dst == src (the in-place cascade)
    // safe: iteration i writes index i and reads indices >= i, and a
    // same-index read happens before the write.
    for (std::size_t i = 0; i < last; ++i) dst[i] |= src[i + q];
  } else {
    for (std::size_t i = 0; i < last; ++i) {
      std::uint64_t v = src[i + q] >> r;
      if (i + q + 1 < n) v |= src[i + q + 1] << (64 - r);
      dst[i] |= v;
    }
  }
}

void scalar_and_shift_down_words(const std::uint64_t* src, std::size_t n,
                                 std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;  // AND with all-ones: dst unchanged
  const std::size_t last = n - q;
  if (r == 0) {
    for (std::size_t i = 0; i < last; ++i) dst[i] &= src[i + q];
  } else {
    for (std::size_t i = 0; i < last; ++i) {
      const std::uint64_t high =
          i + q + 1 < n ? src[i + q + 1] : ~std::uint64_t{0};
      dst[i] &= (src[i + q] >> r) | (high << (64 - r));
    }
  }
  // Words at i >= last view only past-the-end bits (all ones): unchanged.
}

void scalar_or_shift_up_words(const std::uint64_t* src, std::size_t n,
                              std::size_t shift, std::uint64_t* dst) {
  const std::size_t q = shift / 64;
  const std::size_t r = shift % 64;
  if (q >= n) return;
  if (r == 0) {
    // Backward iteration keeps dst == src safe for the up direction:
    // iteration i writes index i and reads indices <= i.
    for (std::size_t i = n; i-- > q;) dst[i] |= src[i - q];
  } else {
    for (std::size_t i = n; i-- > q;) {
      std::uint64_t v = src[i - q] << r;
      if (i > q) v |= src[i - q - 1] >> (64 - r);
      dst[i] |= v;
    }
  }
}

const KernelSet* scalar_kernels() noexcept {
  static constexpr KernelSet kSet = {
      IsaLevel::kScalar,
      "scalar",
      &scalar_pack_threshold_block,
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
