// Conformance harness for the SIMD kernel layer (src/logic/simd/): one
// kernel source compiled per ISA, the widest runnable variant picked once
// by CPUID. Every variant this host can run is called directly through
// its table and fuzzed bit-for-bit against naive per-bit oracles: ragged
// tails, misaligned pointers, the edge words of the shift kernels, in
// place. Run under the sanitizers, this covers each variant's loads as
// well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "logic/simd/kernel_set.h"
#include "sim/rng.h"

namespace {

using namespace glva;
using logic::BitStream;
using logic::simd::IsaLevel;
using logic::simd::KernelSet;
using testutil::naive_popcount;
using testutil::naive_transitions;
using testutil::random_bools;
using testutil::random_words;
using testutil::word_bits;

std::uint64_t tail_mask_for(std::size_t bits) {
  const std::size_t rem = bits % BitStream::kWordBits;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

// -------------------------------------------------------- dispatch table

TEST(SimdDispatch, LevelNamesAreCanonical) {
  EXPECT_STREQ(logic::simd::isa_level_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(logic::simd::isa_level_name(IsaLevel::kAVX2), "avx2");
  EXPECT_STREQ(logic::simd::isa_level_name(IsaLevel::kAVX512), "avx512");
}

TEST(SimdDispatch, ScalarTierIsAlwaysAvailable) {
  EXPECT_TRUE(logic::simd::cpu_supports(IsaLevel::kScalar));
  ASSERT_NE(logic::simd::compiled_kernel_set(IsaLevel::kScalar), nullptr);
  ASSERT_NE(logic::simd::kernel_set(IsaLevel::kScalar), nullptr);
}

TEST(SimdDispatch, AvailableSetsAreOrderedAndSelfConsistent) {
  const auto sets = logic::simd::available_kernel_sets();
  ASSERT_FALSE(sets.empty());
  EXPECT_EQ(sets.front()->level, IsaLevel::kScalar);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_NE(sets[i], nullptr);
    EXPECT_STREQ(sets[i]->name, logic::simd::isa_level_name(sets[i]->level));
    EXPECT_EQ(logic::simd::kernel_set(sets[i]->level), sets[i]);
    if (i > 0) {
      EXPECT_GT(sets[i]->level, sets[i - 1]->level);
    }
    // A complete table: no null entry may ever reach a caller.
    EXPECT_NE(sets[i]->popcount_words, nullptr);
    EXPECT_NE(sets[i]->transition_count_words, nullptr);
    EXPECT_NE(sets[i]->or_shift_down_words, nullptr);
    EXPECT_NE(sets[i]->and_shift_down_words, nullptr);
    EXPECT_NE(sets[i]->or_shift_up_words, nullptr);
  }
}

TEST(SimdDispatch, ActiveIsTheWidestRunnableVariant) {
  const auto sets = logic::simd::available_kernel_sets();
  EXPECT_EQ(&logic::simd::active(), sets.back());
  EXPECT_EQ(logic::simd::active_level(), sets.back()->level);
}

// --------------------------------------------- kernel-level conformance
//
// Every kernel of every runnable variant is held to a naive oracle that
// calls no word kernel: the per-bit counters of tests/fuzz_util.h for the
// counting kernels, and a per-bit shift for the monitor's shift kernels.

TEST(SimdKernels, PopcountMatchesNaiveAcrossLengthsAndAlignment) {
  sim::Rng rng(107);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                                17u, 31u, 32u, 33u, 63u, 64u, 65u, 129u}) {
      const std::vector<std::uint64_t> words = random_words(n + 1, rng);
      for (const std::size_t offset : {0u, 1u}) {  // +8 bytes breaks vector
        const std::uint64_t* first = words.data() + offset;  // alignment
        EXPECT_EQ(set->popcount_words(first, n),
                  naive_popcount(word_bits(first, n * 64)))
            << set->name << ", n " << n << ", offset " << offset;
      }
    }
  }
}

TEST(SimdKernels, TransitionCountMatchesNaiveAcrossTails) {
  sim::Rng rng(109);
  for (const std::size_t bits :
       {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u, 500u,
        513u, 1000u, 2049u, 4095u, 4096u, 4097u}) {
    const std::vector<bool> reference = random_bools(bits, rng);
    const BitStream stream = BitStream::pack(reference);
    const std::uint64_t tail = tail_mask_for(bits);
    const std::size_t expected = naive_transitions(reference);
    // Bits above the tail mask are ignored: the range counter hands the
    // kernel a last word that runs on past the range. One leading word
    // of noise misaligns the array; word 0 has no predecessor, so the
    // kernel must not read it.
    std::vector<std::uint64_t> dirty(1 + stream.word_count(), rng.next_u64());
    std::copy(stream.words().begin(), stream.words().end(), dirty.begin() + 1);
    dirty.back() |= ~tail & rng.next_u64();
    for (const KernelSet* set : logic::simd::available_kernel_sets()) {
      EXPECT_EQ(set->transition_count_words(stream.words().data(),
                                            stream.word_count(), tail),
                expected)
          << set->name << ", bits " << bits;
      EXPECT_EQ(set->transition_count_words(dirty.data() + 1,
                                            stream.word_count(), tail),
                expected)
          << set->name << ", dirty and misaligned, bits " << bits;
    }
  }
}

// The shift kernels' oracle: per bit over the 64n-bit array, with
// out-of-range view bits reading 0 for the OR forms and 1 for the AND
// form.
enum class ShiftKernel { kOrDown, kAndDown, kOrUp };

std::vector<std::uint64_t> naive_shift_combine(
    const std::vector<std::uint64_t>& src,
    const std::vector<std::uint64_t>& dst, std::size_t shift,
    ShiftKernel kernel) {
  const std::size_t bits = src.size() * 64;
  std::vector<std::uint64_t> out = dst;
  for (std::size_t j = 0; j < bits; ++j) {
    bool view;
    if (kernel == ShiftKernel::kOrUp) {
      view = j >= shift && ((src[(j - shift) / 64] >> ((j - shift) % 64)) &
                            1U) != 0;
    } else {
      const std::size_t k = j + shift;
      view = k < bits ? ((src[k / 64] >> (k % 64)) & 1U) != 0
                      : kernel == ShiftKernel::kAndDown;
    }
    const bool current = ((out[j / 64] >> (j % 64)) & 1U) != 0;
    const bool combined = kernel == ShiftKernel::kAndDown ? (current && view)
                                                          : (current || view);
    if (combined) {
      out[j / 64] |= std::uint64_t{1} << (j % 64);
    } else {
      out[j / 64] &= ~(std::uint64_t{1} << (j % 64));
    }
  }
  return out;
}

using ShiftFn = void (*)(const std::uint64_t*, std::size_t, std::size_t,
                         std::uint64_t*);

struct ShiftKernelRow {
  ShiftKernel kind;
  const char* name;
  ShiftFn KernelSet::*fn;
};

constexpr ShiftKernelRow kShiftKernels[] = {
    {ShiftKernel::kOrDown, "or_shift_down", &KernelSet::or_shift_down_words},
    {ShiftKernel::kAndDown, "and_shift_down",
     &KernelSet::and_shift_down_words},
    {ShiftKernel::kOrUp, "or_shift_up", &KernelSet::or_shift_up_words},
};

/// One shift case: every shift kernel of every variant runs it out of
/// place and in place (dst == src, the monitor's cascade form).
struct TestCase {
  std::size_t words;
  std::size_t shift;
};

constexpr TestCase kShiftCases[] = {
    // n = 1 and n = 2: the last word is the whole array, or half of it.
    TestCase{.words = 1, .shift = 0},     TestCase{.words = 1, .shift = 1},
    TestCase{.words = 1, .shift = 63},    TestCase{.words = 1, .shift = 64},
    TestCase{.words = 1, .shift = 65},    TestCase{.words = 1, .shift = 200},
    TestCase{.words = 2, .shift = 0},     TestCase{.words = 2, .shift = 1},
    TestCase{.words = 2, .shift = 63},    TestCase{.words = 2, .shift = 64},
    TestCase{.words = 2, .shift = 65},    TestCase{.words = 2, .shift = 127},
    TestCase{.words = 2, .shift = 128},   TestCase{.words = 2, .shift = 129},
    TestCase{.words = 2, .shift = 1000},
    // Longer arrays: vector bodies plus their edges, word multiples, the
    // monitor's doubling steps, and 64n - 1, 64n and past the array.
    TestCase{.words = 3, .shift = 1},     TestCase{.words = 3, .shift = 64},
    TestCase{.words = 3, .shift = 100},   TestCase{.words = 3, .shift = 191},
    TestCase{.words = 3, .shift = 192},   TestCase{.words = 3, .shift = 193},
    TestCase{.words = 5, .shift = 1},     TestCase{.words = 5, .shift = 31},
    TestCase{.words = 5, .shift = 63},    TestCase{.words = 5, .shift = 64},
    TestCase{.words = 5, .shift = 65},    TestCase{.words = 5, .shift = 128},
    TestCase{.words = 5, .shift = 255},   TestCase{.words = 5, .shift = 319},
    TestCase{.words = 5, .shift = 320},   TestCase{.words = 5, .shift = 327},
    TestCase{.words = 8, .shift = 1},     TestCase{.words = 8, .shift = 2},
    TestCase{.words = 8, .shift = 4},     TestCase{.words = 8, .shift = 8},
    TestCase{.words = 8, .shift = 64},    TestCase{.words = 8, .shift = 129},
    TestCase{.words = 8, .shift = 256},   TestCase{.words = 8, .shift = 511},
    TestCase{.words = 8, .shift = 512},   TestCase{.words = 8, .shift = 513},
    TestCase{.words = 9, .shift = 1},     TestCase{.words = 9, .shift = 7},
    TestCase{.words = 9, .shift = 64},    TestCase{.words = 9, .shift = 500},
    TestCase{.words = 9, .shift = 575},   TestCase{.words = 9, .shift = 576},
    TestCase{.words = 9, .shift = 577},   TestCase{.words = 17, .shift = 1},
    TestCase{.words = 17, .shift = 9},    TestCase{.words = 17, .shift = 64},
    TestCase{.words = 17, .shift = 128},  TestCase{.words = 17, .shift = 1087},
    TestCase{.words = 17, .shift = 1088}, TestCase{.words = 33, .shift = 1},
    TestCase{.words = 33, .shift = 63},   TestCase{.words = 33, .shift = 64},
    TestCase{.words = 33, .shift = 65},   TestCase{.words = 33, .shift = 2111},
    TestCase{.words = 33, .shift = 2112}, TestCase{.words = 33, .shift = 5000},
    TestCase{.words = 65, .shift = 1},    TestCase{.words = 65, .shift = 2},
    TestCase{.words = 65, .shift = 4},    TestCase{.words = 65, .shift = 8},
    TestCase{.words = 65, .shift = 16},   TestCase{.words = 65, .shift = 32},
    TestCase{.words = 65, .shift = 64},   TestCase{.words = 65, .shift = 65},
    TestCase{.words = 65, .shift = 128},  TestCase{.words = 65, .shift = 256},
    TestCase{.words = 65, .shift = 4095}, TestCase{.words = 65, .shift = 4159},
    TestCase{.words = 65, .shift = 4160}, TestCase{.words = 65, .shift = 4161},
};

TEST(SimdKernels, ShiftKernelsMatchNaiveInAndOutOfPlace) {
  sim::Rng rng(131);
  for (const TestCase& c : kShiftCases) {
    const std::vector<std::uint64_t> src = random_words(c.words, rng);
    const std::vector<std::uint64_t> dst = random_words(c.words, rng);
    for (const ShiftKernelRow& row : kShiftKernels) {
      const std::vector<std::uint64_t> expected =
          naive_shift_combine(src, dst, c.shift, row.kind);
      const std::vector<std::uint64_t> expected_in_place =
          naive_shift_combine(src, src, c.shift, row.kind);
      for (const KernelSet* set : logic::simd::available_kernel_sets()) {
        std::vector<std::uint64_t> out = dst;
        (set->*row.fn)(src.data(), c.words, c.shift, out.data());
        EXPECT_EQ(out, expected) << set->name << " " << row.name << ", words "
                                 << c.words << ", shift " << c.shift;
        std::vector<std::uint64_t> in_place = src;
        (set->*row.fn)(in_place.data(), c.words, c.shift, in_place.data());
        EXPECT_EQ(in_place, expected_in_place)
            << set->name << " " << row.name << " in place, words " << c.words
            << ", shift " << c.shift;
      }
    }
  }
}

}  // namespace
