#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

/// The threshold word packer of the packed ADC (`store::DigitizingSink`).
/// Lives in logic/ beside `BitStream`, whose LSB-first word layout it
/// produces.
namespace glva::logic {

/// Pack the first `count` comparisons (count <= 64, asserted) into the low
/// `count` bits of the result, bit j = (samples[j] >= threshold), NaN
/// comparing false exactly like the scalar `>=`; higher bits are zero —
/// ready for `BitStream::append_bits` or ORing into a partially filled
/// pending word. Reads exactly `count` doubles, so it is safe on buffers
/// shorter than a full word. O(count).
inline std::uint64_t pack_threshold_bits(const double* samples,
                                         std::size_t count, double threshold) {
  assert(count <= 64 && "pack_threshold_bits: at most one word per call");
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < count; ++j) {
    word |= static_cast<std::uint64_t>(samples[j] >= threshold) << j;
  }
  return word;
}

}  // namespace glva::logic
