#pragma once

// Shared fuzz-vs-naive machinery for the packed-analysis test suites
// (test_bitstream, test_props, test_store, test_simd_kernels): seeded
// generators for bool/word/double streams and for digitized planes built
// from input runs, the naive bit-counting references the word-parallel
// kernels are checked against, and the ragged block slicings the
// streaming tests cut their deliveries into. Header-only so each suite
// stays a single translation unit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/adc.h"
#include "props/property.h"
#include "sim/rng.h"

namespace glva::testutil {

// ------------------------------------------------------------- generators

/// n independent fair coin flips.
inline std::vector<bool> random_bools(std::size_t n, sim::Rng& rng) {
  std::vector<bool> bits(n);
  for (std::size_t k = 0; k < n; ++k) bits[k] = rng.below(2) == 1;
  return bits;
}

/// n uniformly random 64-bit words (dense bit patterns for word-kernel
/// fuzz; every bit is fair).
inline std::vector<std::uint64_t> random_words(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.next_u64();
  return words;
}

/// n doubles straddling `threshold`, salted with every special value a
/// `>= threshold` comparison must classify exactly like the scalar
/// operator: NaN (compares false), ±infinity, ±0.0, the threshold itself
/// and its immediate neighbours. Roughly a third of the samples are
/// specials; the rest are normals centred on the threshold.
inline std::vector<double> special_doubles(std::size_t n, double threshold,
                                           sim::Rng& rng) {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      threshold,
      std::nextafter(threshold, std::numeric_limits<double>::infinity()),
      std::nextafter(threshold, -std::numeric_limits<double>::infinity()),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
  };
  constexpr std::size_t kSpecialCount = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.below(3) == 0 ? specials[rng.below(kSpecialCount)]
                          : threshold + rng.normal() * 10.0;
  }
  return values;
}

/// Digitized planes whose inputs are laid out as runs: a lead-in run of
/// `offset` samples, then runs of `length` samples until `samples` are
/// filled (the last run is cut at the final sample). Each run holds one
/// combination of `inputs` planes, drawn from a pool of three, so a
/// combination is regularly interrupted and resumed. The output keeps a
/// random bit per run or toggles inside it, so resumed combinations meet
/// both an equal and a different output bit across their gaps.
inline core::DigitalData run_planes(std::size_t inputs, std::size_t samples,
                                    std::size_t offset, std::size_t length,
                                    sim::Rng& rng) {
  const std::size_t combinations = std::size_t{1} << inputs;
  const std::size_t pool[] = {rng.below(combinations),
                              rng.below(combinations),
                              rng.below(combinations)};
  core::DigitalData data;
  data.inputs.assign(inputs, std::vector<bool>(samples));
  data.output.resize(samples);
  std::size_t start = 0;
  std::size_t run_length = offset == 0 ? length : offset;
  while (start < samples) {
    const std::size_t end = std::min(samples, start + run_length);
    const std::size_t combination = pool[rng.below(3)];
    const std::size_t toggle = rng.below(4);  // 0: every sample, 1: random
    bool bit = rng.below(2) == 1;
    for (std::size_t k = start; k < end; ++k) {
      for (std::size_t i = 0; i < inputs; ++i) {
        data.inputs[i][k] = ((combination >> (inputs - 1 - i)) & 1U) != 0;
      }
      if (toggle == 0) bit = !bit;
      if (toggle == 1) bit = rng.below(2) == 1;
      data.output[k] = bit;
    }
    start = end;
    run_length = length;
  }
  return data;
}

/// The layouts both run-reduction fuzzes walk, for `inputs` inputs: runs
/// of 1, 63, 64 and 65 samples after every word offset over 4097 samples,
/// and the short traces of 1, 63, 64 and 65 samples after the offsets
/// that straddle a word edge. A final run always ends at the last sample;
/// at 64 samples, and for 64-sample runs after a zero offset, runs end on
/// word boundaries. Past 8 inputs each case allocates 2^N records while
/// the wider ids change nothing in the word arithmetic, so the long trace
/// takes only the edge offsets and the short traces only offset 0.
template <typename Check>
void for_each_run_layout(std::size_t inputs, sim::Rng& rng, Check check) {
  const bool wide = inputs > 8;
  std::vector<std::size_t> offsets = {0, 1, 62, 63};
  if (!wide) {
    offsets.clear();
    for (std::size_t offset = 0; offset < 64; ++offset) {
      offsets.push_back(offset);
    }
  }
  const std::vector<std::size_t> short_offsets =
      wide ? std::vector<std::size_t>{0} : std::vector<std::size_t>{0, 1, 62, 63};
  for (const std::size_t length : {1, 63, 64, 65}) {
    for (const std::size_t offset : offsets) {
      check(run_planes(inputs, 4097, offset, length, rng),
            std::string("N ") + std::to_string(inputs) + ", runs of " +
                std::to_string(length) + " after " + std::to_string(offset));
    }
    for (const std::size_t samples : {1, 63, 64, 65}) {
      for (const std::size_t offset : short_offsets) {
        check(run_planes(inputs, samples, offset, length, rng),
              std::string("N ") + std::to_string(inputs) + ", " +
                  std::to_string(samples) + " samples, runs of " +
                  std::to_string(length) + " after " +
                  std::to_string(offset));
      }
    }
  }
}

/// A random property AST of at most `depth` operator levels over the
/// given atom names — the differential-fuzz driver for test_props. Every
/// operator kind is reachable; window bounds are drawn from 0..129 so
/// bounded windows regularly straddle 64-bit word boundaries.
inline props::PropertyPtr random_property(std::size_t depth,
                                          const std::vector<std::string>& atoms,
                                          sim::Rng& rng) {
  if (depth == 0 || rng.below(5) == 0) {
    return props::make_atom(atoms[rng.below(atoms.size())]);
  }
  const auto child = [&] { return random_property(depth - 1, atoms, rng); };
  const std::size_t bound = rng.below(130);
  switch (rng.below(11)) {
    case 0: return props::make_not(child());
    case 1: return props::make_and(child(), child());
    case 2: return props::make_or(child(), child());
    case 3: return props::make_implies(child(), child());
    case 4: return props::make_globally(child());
    case 5: return props::make_eventually(child());
    case 6: return props::make_globally_bounded(bound, child());
    case 7: return props::make_eventually_bounded(bound, child());
    case 8: return props::make_until_bounded(child(), bound, child());
    case 9: return props::make_settle(bound, child());
    default: return props::make_noglitch(bound, child());
  }
}

// ----------------------------------------------------- naive references

/// The first `bits` bits of a word array, LSB-first: the unpacked view
/// the per-bit counters below take, so word kernels can be checked
/// without any other word kernel in the loop.
inline std::vector<bool> word_bits(const std::uint64_t* words,
                                   std::size_t bits) {
  std::vector<bool> out(bits);
  for (std::size_t k = 0; k < bits; ++k) {
    out[k] = ((words[k / 64] >> (k % 64)) & 1U) != 0;
  }
  return out;
}

/// Reference popcount over the unpacked representation.
inline std::size_t naive_popcount(const std::vector<bool>& bits) {
  std::size_t count = 0;
  for (const bool b : bits) count += b ? 1 : 0;
  return count;
}

/// Reference adjacent-transition count (the paper's O_Var applied to a
/// whole stream).
inline std::size_t naive_transitions(const std::vector<bool>& bits) {
  std::size_t count = 0;
  for (std::size_t k = 1; k < bits.size(); ++k) {
    if (bits[k] != bits[k - 1]) ++count;
  }
  return count;
}

// ------------------------------------------------------- ragged slicing

/// The block sizes streaming fuzz cuts deliveries into: single rows,
/// one-off-word boundaries, exact words, a whole chunk, and a ragged
/// cycle. Shared by the sink block-path tests and the SIMD batch tests.
inline const std::vector<std::vector<std::size_t>>& block_slicings() {
  static const std::vector<std::vector<std::size_t>> kSlicings = {
      {1}, {63}, {64}, {65}, {4096}, {1, 7, 64, 65, 3, 256, 31}};
  return kSlicings;
}

/// Cut `total` items into consecutive block lengths cycling through
/// `cycle` (the final block is whatever remains). The returned lengths
/// sum to exactly `total`.
inline std::vector<std::size_t> ragged_slices(
    std::size_t total, const std::vector<std::size_t>& cycle) {
  std::vector<std::size_t> slices;
  std::size_t offset = 0;
  std::size_t next = 0;
  while (offset < total) {
    const std::size_t count =
        std::min(cycle[next % cycle.size()], total - offset);
    slices.push_back(count);
    offset += count;
    ++next;
  }
  return slices;
}

}  // namespace glva::testutil
