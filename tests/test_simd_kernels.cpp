// Conformance harness for the runtime-dispatched SIMD kernel layer
// (src/logic/simd/): every compiled-in, CPU-supported kernel variant is
// fuzzed bit-for-bit against the scalar reference tier — ragged tails,
// misaligned pointers, NaN/±inf/-0.0/threshold-equal doubles — then the
// whole analysis pipeline is re-run under each forced level and must
// reproduce the scalar verdict, PFoBE, and FOV fingerprints exactly.
// CI additionally forces GLVA_SIMD=scalar/sse2 through the full suite and
// runs this binary under GLVA_SIMD=avx2/avx512 where the runner supports
// them (.github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/circuit_repository.h"
#include "core/adc.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "logic/simd/kernel_set.h"
#include "logic/word_pack.h"
#include "sim/rng.h"
#include "store/trace_sink.h"
#include "util/errors.h"

namespace {

using namespace glva;
using logic::BitStream;
using logic::simd::IsaLevel;
using logic::simd::KernelSet;
using testutil::naive_popcount;
using testutil::naive_transitions;
using testutil::random_bools;
using testutil::random_words;
using testutil::special_doubles;

constexpr double kThreshold = 15.0;

/// The reference tier every variant is checked against. Always present:
/// the scalar TU has no ISA guard.
const KernelSet& scalar_ref() {
  const KernelSet* set = logic::simd::kernel_set(IsaLevel::kScalar);
  EXPECT_NE(set, nullptr);
  return *set;
}

/// Restore the entry state of the dispatch table around tests that force
/// levels, so suite order never leaks a forced level into other tests.
class ActiveLevelGuard {
public:
  ActiveLevelGuard() : saved_(logic::simd::active_level()) {}
  ~ActiveLevelGuard() { logic::simd::set_active(saved_); }
  ActiveLevelGuard(const ActiveLevelGuard&) = delete;
  ActiveLevelGuard& operator=(const ActiveLevelGuard&) = delete;

private:
  IsaLevel saved_;
};

std::uint64_t tail_mask_for(std::size_t bits) {
  const std::size_t rem = bits % BitStream::kWordBits;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

// -------------------------------------------------------- dispatch table

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kSSE2,
                               IsaLevel::kAVX2, IsaLevel::kAVX512}) {
    EXPECT_EQ(logic::simd::parse_isa_level(logic::simd::isa_level_name(level)),
              level);
  }
  EXPECT_THROW((void)logic::simd::parse_isa_level("avx1024"), InvalidArgument);
  EXPECT_THROW((void)logic::simd::parse_isa_level(""), InvalidArgument);
  EXPECT_THROW((void)logic::simd::parse_isa_level("SSE2"), InvalidArgument);
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
    EXPECT_NE(sets[i]->pack_threshold_block, nullptr);
    EXPECT_NE(sets[i]->popcount_words, nullptr);
    EXPECT_NE(sets[i]->and_popcount_words, nullptr);
    EXPECT_NE(sets[i]->transition_count_words, nullptr);
    EXPECT_NE(sets[i]->combine_masks, nullptr);
    EXPECT_NE(sets[i]->or_shift_down_words, nullptr);
    EXPECT_NE(sets[i]->and_shift_down_words, nullptr);
    EXPECT_NE(sets[i]->or_shift_up_words, nullptr);
  }
}

TEST(SimdDispatch, SetActiveRoundTripsEveryAvailableLevel) {
  ActiveLevelGuard guard;
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    EXPECT_EQ(logic::simd::active_level(), set->level);
    EXPECT_EQ(&logic::simd::active(), set);
  }
}

TEST(SimdDispatch, SetActiveRejectsUnavailableLevels) {
  ActiveLevelGuard guard;
  bool found_unavailable = false;
  for (const IsaLevel level : {IsaLevel::kSSE2, IsaLevel::kAVX2,
                               IsaLevel::kAVX512}) {
    if (logic::simd::kernel_set(level) == nullptr) {
      found_unavailable = true;
      EXPECT_THROW(logic::simd::set_active(level), InvalidArgument);
    }
  }
  if (!found_unavailable) {
    GTEST_SKIP() << "every compiled tier is supported by this CPU";
  }
}

// --------------------------------------------- kernel-level conformance

TEST(SimdKernels, PackThresholdBlockMatchesScalarOnSpecialValues) {
  sim::Rng rng(101);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    for (const std::size_t words : {1u, 2u, 3u, 8u, 64u, 65u}) {
      // +8 doubles of slack so every offset misaligns the vector loads
      // without reading past the buffer.
      const std::vector<double> buffer =
          special_doubles(words * 64 + 8, kThreshold, rng);
      for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
        std::vector<std::uint64_t> expected(words, 0xDEADBEEFu);
        std::vector<std::uint64_t> actual(words, 0xFEEDFACEu);
        scalar_ref().pack_threshold_block(buffer.data() + offset, words,
                                          kThreshold, expected.data());
        set->pack_threshold_block(buffer.data() + offset, words, kThreshold,
                                  actual.data());
        EXPECT_EQ(actual, expected)
            << set->name << ", words " << words << ", offset " << offset;
      }
    }
  }
}

TEST(SimdKernels, PackThresholdBlockMatchesScalarComparisonSemantics) {
  // Ground truth, independent of any kernel: bit j == (samples[j] >= th).
  sim::Rng rng(103);
  const std::vector<double> samples = special_doubles(256, kThreshold, rng);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    std::vector<std::uint64_t> words(4);
    set->pack_threshold_block(samples.data(), 4, kThreshold, words.data());
    for (std::size_t k = 0; k < 256; ++k) {
      const bool expected = samples[k] >= kThreshold;
      const bool actual = ((words[k / 64] >> (k % 64)) & 1U) != 0;
      ASSERT_EQ(actual, expected)
          << set->name << ", sample " << k << " = " << samples[k];
    }
  }
}

TEST(SimdKernels, PopcountKernelsMatchScalarAcrossLengthsAndAlignment) {
  sim::Rng rng(107);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 65u}) {
      const std::vector<std::uint64_t> a = random_words(n + 1, rng);
      const std::vector<std::uint64_t> b = random_words(n + 1, rng);
      for (const std::size_t offset : {0u, 1u}) {  // +8 bytes breaks vector
        EXPECT_EQ(set->popcount_words(a.data() + offset, n),      // alignment
                  scalar_ref().popcount_words(a.data() + offset, n))
            << set->name << ", n " << n << ", offset " << offset;
        EXPECT_EQ(
            set->and_popcount_words(a.data() + offset, b.data() + offset, n),
            scalar_ref().and_popcount_words(a.data() + offset,
                                            b.data() + offset, n))
            << set->name << ", n " << n << ", offset " << offset;
      }
    }
  }
}

TEST(SimdKernels, TransitionCountMatchesScalarAndNaiveAcrossTails) {
  sim::Rng rng(109);
  for (const std::size_t bits :
       {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 4095u, 4096u, 4097u}) {
    const std::vector<bool> reference = random_bools(bits, rng);
    const BitStream stream = BitStream::pack(reference);
    const std::uint64_t tail = tail_mask_for(bits);
    const std::size_t expected = naive_transitions(reference);
    ASSERT_EQ(scalar_ref().transition_count_words(stream.words().data(),
                                                  stream.word_count(), tail),
              expected)
        << "scalar reference diverged from naive, bits " << bits;
    // Bits above the tail mask are ignored: the range counter hands the
    // kernel a last word that runs on past the range.
    std::vector<std::uint64_t> dirty(stream.words().begin(),
                                     stream.words().end());
    dirty.back() |= ~tail & rng.next_u64();
    for (const KernelSet* set : logic::simd::available_kernel_sets()) {
      EXPECT_EQ(set->transition_count_words(stream.words().data(),
                                            stream.word_count(), tail),
                expected)
          << set->name << ", bits " << bits;
      EXPECT_EQ(set->transition_count_words(dirty.data(), dirty.size(), tail),
                expected)
          << set->name << ", dirty tail, bits " << bits;
    }
  }
}

TEST(SimdKernels, CombineMasksMatchesScalarUpToMaxInputs) {
  sim::Rng rng(127);
  for (const std::size_t inputs : {1u, 2u, 3u, 7u, 8u}) {
    for (const std::size_t words : {1u, 3u, 8u, 9u, 65u}) {
      std::vector<std::vector<std::uint64_t>> planes;
      std::vector<const std::uint64_t*> plane_ptrs;
      for (std::size_t i = 0; i < inputs; ++i) {
        planes.push_back(random_words(words, rng));
        plane_ptrs.push_back(planes.back().data());
      }
      // A few combinations: all complemented, all direct, and a mixed one.
      for (const std::size_t c :
           {std::size_t{0}, (std::size_t{1} << inputs) - 1,
            (std::size_t{1} << inputs) / 2}) {
        std::vector<std::uint64_t> invert(inputs);
        for (std::size_t i = 0; i < inputs; ++i) {
          invert[i] = ((c >> (inputs - 1 - i)) & 1U) != 0 ? 0
                                                          : ~std::uint64_t{0};
        }
        std::vector<std::uint64_t> expected(words);
        scalar_ref().combine_masks(plane_ptrs.data(), invert.data(), inputs,
                                   words, expected.data());
        for (const KernelSet* set : logic::simd::available_kernel_sets()) {
          std::vector<std::uint64_t> actual(words, 0x5A5A5A5Au);
          set->combine_masks(plane_ptrs.data(), invert.data(), inputs, words,
                             actual.data());
          EXPECT_EQ(actual, expected) << set->name << ", inputs " << inputs
                                      << ", words " << words << ", c " << c;
        }
      }
    }
  }
}

// The shift-combine kernels' executable spec: per-bit over the 64n-bit
// array, with out-of-range view bits reading 0 for the OR forms and 1
// for the AND form.
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

TEST(SimdKernels, ShiftCombineKernelsMatchNaiveIncludingAliasing) {
  sim::Rng rng(131);
  for (const std::size_t words : {1u, 2u, 5u, 8u, 9u, 65u}) {
    for (const std::size_t shift :
         {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{129}, words * 64 - 1, words * 64,
          words * 64 + 7}) {
      const std::vector<std::uint64_t> src = random_words(words, rng);
      const std::vector<std::uint64_t> dst = random_words(words, rng);
      const struct {
        ShiftKernel kind;
        void (*kernel)(const std::uint64_t*, std::size_t, std::size_t,
                       std::uint64_t*);
        const char* name;
      } cases[] = {
          {ShiftKernel::kOrDown, scalar_ref().or_shift_down_words,
           "or_shift_down"},
          {ShiftKernel::kAndDown, scalar_ref().and_shift_down_words,
           "and_shift_down"},
          {ShiftKernel::kOrUp, scalar_ref().or_shift_up_words,
           "or_shift_up"},
      };
      for (const auto& c : cases) {
        const std::vector<std::uint64_t> expected =
            naive_shift_combine(src, dst, shift, c.kind);
        for (const KernelSet* set : logic::simd::available_kernel_sets()) {
          const auto kernel = c.kind == ShiftKernel::kOrDown
                                  ? set->or_shift_down_words
                                  : c.kind == ShiftKernel::kAndDown
                                        ? set->and_shift_down_words
                                        : set->or_shift_up_words;
          std::vector<std::uint64_t> actual = dst;
          kernel(src.data(), words, shift, actual.data());
          EXPECT_EQ(actual, expected)
              << set->name << " " << c.name << ", words " << words
              << ", shift " << shift;
          // The in-place cascade case: dst aliases src exactly.
          std::vector<std::uint64_t> aliased = src;
          kernel(aliased.data(), words, shift, aliased.data());
          EXPECT_EQ(aliased, naive_shift_combine(src, src, shift, c.kind))
              << set->name << " " << c.name << " aliased, words " << words
              << ", shift " << shift;
        }
      }
    }
  }
}

// -------------------------------------- BitStream/ADC under forced levels

TEST(SimdForcedLevels, BitStreamCountsMatchNaiveUnderEveryLevel) {
  ActiveLevelGuard guard;
  sim::Rng rng(131);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 4095u, 4097u}) {
      const std::vector<bool> ra = random_bools(n, rng);
      const std::vector<bool> rb = random_bools(n, rng);
      const BitStream a = BitStream::pack(ra);
      const BitStream b = BitStream::pack(rb);
      EXPECT_EQ(a.popcount(), naive_popcount(ra)) << set->name << " n " << n;
      EXPECT_EQ(a.transition_count(), naive_transitions(ra))
          << set->name << " n " << n;
      std::size_t and_expected = 0;
      for (std::size_t k = 0; k < n; ++k) {
        and_expected += (ra[k] && rb[k]) ? 1 : 0;
      }
      EXPECT_EQ(logic::and_popcount(a, b), and_expected)
          << set->name << " n " << n;
      // The range counters of the run reduction, over a range that
      // starts and ends mid-word.
      const std::size_t begin = n / 3;
      const std::size_t end = n - n / 5;
      const std::vector<bool> range(ra.begin() + begin, ra.begin() + end);
      EXPECT_EQ(a.popcount(begin, end), naive_popcount(range))
          << set->name << " n " << n;
      EXPECT_EQ(a.transition_count(begin, end), naive_transitions(range))
          << set->name << " n " << n;
    }
  }
}

TEST(SimdForcedLevels, AdcPackedMatchesReferenceAdcUnderEveryLevel) {
  ActiveLevelGuard guard;
  sim::Rng rng(137);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 257u, 4096u}) {
    const std::vector<double> analog = special_doubles(n, kThreshold, rng);
    const std::vector<bool> expected = core::adc(analog, kThreshold);
    for (const KernelSet* set : logic::simd::available_kernel_sets()) {
      logic::simd::set_active(set->level);
      EXPECT_EQ(core::adc_packed(analog, kThreshold).unpack(), expected)
          << set->name << ", n " << n;
    }
  }
}

TEST(SimdForcedLevels, WordPackersMatchScalarComparison) {
  ActiveLevelGuard guard;
  sim::Rng rng(139);
  const std::vector<double> samples = special_doubles(64, kThreshold, rng);
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    std::uint64_t expected = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      expected |= static_cast<std::uint64_t>(samples[j] >= kThreshold) << j;
    }
    EXPECT_EQ(logic::pack_threshold_word64(samples.data(), kThreshold),
              expected)
        << set->name;
    for (const std::size_t count : {0u, 1u, 31u, 63u, 64u}) {
      const std::uint64_t mask =
          count == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << count) - 1);
      EXPECT_EQ(
          logic::pack_threshold_bits(samples.data(), count, kThreshold),
          expected & mask)
          << set->name << ", count " << count;
    }
  }
}

// ------------------------------------------- statistics tier (pipeline)

/// Bit-exact rendering of a double (text formatting could hide ULP drift).
std::string bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream out;
  out << std::hex << bits;
  return out.str();
}

/// Everything verdict-bearing an experiment produced, ULP-exact.
std::string fingerprint(const core::ExperimentResult& result) {
  std::ostringstream out;
  out << result.extraction.extracted().to_bits() << '|'
      << bits_of(result.extraction.fitness()) << '|'
      << result.verification.matches << '|'
      << result.verification.wrong_state_count();
  for (const auto& record : result.extraction.variation.records) {
    out << '|' << record.combination << ':' << record.case_count << ':'
        << record.high_count << ':' << record.variation_count << ':'
        << bits_of(record.fov_est);
  }
  return out.str();
}

std::string fingerprint(const core::EnsembleResult& ensemble) {
  std::ostringstream out;
  out << ensemble.majority_logic.to_bits() << '|' << ensemble.majority_matches
      << '|' << ensemble.match_count << '|' << bits_of(ensemble.pfobe.mean)
      << '|' << bits_of(ensemble.pfobe.stddev) << '|'
      << bits_of(ensemble.wrong_states.mean);
  for (const auto& stats : ensemble.combination_stats) {
    out << '|' << stats.combination << ':' << stats.high_votes << ':'
        << bits_of(stats.fov_mean) << ':' << bits_of(stats.fov_stddev);
  }
  return out.str();
}

std::vector<std::size_t> case_counts(const core::ExperimentResult& result) {
  std::vector<std::size_t> counts;
  for (const auto& record : result.extraction.variation.records) {
    counts.push_back(record.case_count);
  }
  return counts;
}

/// Pearson chi-square of observed per-combination case counts against the
/// scalar run's counts as the expected distribution (combinations the
/// scalar run never visited must stay unvisited).
double case_count_chi_square(const std::vector<std::size_t>& observed,
                             const std::vector<std::size_t>& expected) {
  EXPECT_EQ(observed.size(), expected.size());
  double chi2 = 0.0;
  for (std::size_t c = 0; c < observed.size(); ++c) {
    const double obs = static_cast<double>(observed[c]);
    const double exp = static_cast<double>(expected[c]);
    if (exp == 0.0) {
      EXPECT_EQ(obs, 0.0) << "combination " << c;
      continue;
    }
    chi2 += (obs - exp) * (obs - exp) / exp;
  }
  return chi2;
}

core::ExperimentConfig fast_config() {
  core::ExperimentConfig config;
  config.total_time = 400.0;
  config.seed = 99;
  return config;
}

TEST(SimdStatistics, ExperimentVerdictsAreBitIdenticalAcrossLevels) {
  ActiveLevelGuard guard;
  const auto spec = circuits::CircuitRepository::build("myers_and");

  logic::simd::set_active(IsaLevel::kScalar);
  const auto baseline = core::run_experiment(spec, fast_config());
  const std::string expected = fingerprint(baseline);
  const std::vector<std::size_t> expected_counts = case_counts(baseline);

  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    const auto result = core::run_experiment(spec, fast_config());
    EXPECT_EQ(fingerprint(result), expected) << set->name;
    // Same samples, same classification: the case-count distribution is
    // not merely statistically compatible but exactly the scalar one.
    EXPECT_EQ(case_count_chi_square(case_counts(result), expected_counts),
              0.0)
        << set->name;
  }
}

TEST(SimdStatistics, DigitizingSinkPipelineIsBitIdenticalAcrossLevels) {
  ActiveLevelGuard guard;
  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config = fast_config();
  config.sink = store::SinkKind::kDigitize;

  logic::simd::set_active(IsaLevel::kScalar);
  const std::string expected = fingerprint(core::run_experiment(spec, config));

  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    EXPECT_EQ(fingerprint(core::run_experiment(spec, config)), expected)
        << set->name;
  }
}

TEST(SimdStatistics, EnsembleFingerprintIsBitIdenticalAcrossLevels) {
  ActiveLevelGuard guard;
  const auto spec = circuits::CircuitRepository::build("myers_nand");

  logic::simd::set_active(IsaLevel::kScalar);
  const auto baseline = core::run_ensemble(spec, fast_config(), 3, 2);
  const std::string expected = fingerprint(baseline);

  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    logic::simd::set_active(set->level);
    const auto ensemble = core::run_ensemble(spec, fast_config(), 3, 2);
    EXPECT_EQ(fingerprint(ensemble), expected) << set->name;
  }
}

}  // namespace
