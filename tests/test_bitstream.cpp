// Unit tests for the bit-packed stream machinery (logic::BitStream, its
// range counters, logic::CombinationIndex) and its equivalence with the
// vector<bool> reference path: edge cases (empty streams, non-word-multiple
// lengths, tail-word masking), word-parallel op correctness against naive
// re-implementations, and the differential fuzz of the run reduction
// (analyze_packed) against the reference stages and the mask oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/case_analyzer.h"
#include "core/logic_analyzer.h"
#include "core/variation_analyzer.h"
#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "logic/combination_index.h"
#include "logic/input_runs.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "util/errors.h"

namespace {

using namespace glva;
using logic::BitStream;
using logic::CombinationIndex;

// Generators and naive references shared with test_store and
// test_simd_kernels (tests/fuzz_util.h).
using testutil::naive_popcount;
using testutil::naive_transitions;
using testutil::random_bools;
using testutil::for_each_run_layout;

// ------------------------------------------------------------ edge cases

TEST(BitStream, EmptyStream) {
  const BitStream empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.word_count(), 0u);
  EXPECT_EQ(empty.popcount(), 0u);
  EXPECT_EQ(empty.transition_count(), 0u);
  EXPECT_EQ(empty, BitStream::pack({}));
  EXPECT_EQ((~empty).size(), 0u);
  EXPECT_EQ(logic::and_popcount(empty, BitStream()), 0u);
  EXPECT_EQ(empty.popcount(0, 0), 0u);
  EXPECT_EQ(empty.transition_count(0, 0), 0u);
  EXPECT_EQ(empty.find_zero(0, 0), 0u);
  EXPECT_TRUE(empty.unpack().empty());
}

TEST(BitStream, PushBackAndIndexing) {
  BitStream stream;
  const std::vector<bool> pattern = {true, false, false, true, true};
  for (const bool b : pattern) stream.push_back(b);
  ASSERT_EQ(stream.size(), pattern.size());
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    EXPECT_EQ(stream[k], pattern[k]) << k;
    EXPECT_EQ(stream.test(k), pattern[k]) << k;
  }
  EXPECT_EQ(stream.unpack(), pattern);
}

TEST(BitStream, NonWordMultipleLengths) {
  sim::Rng rng(11);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 100u, 128u, 129u, 1000u}) {
    const std::vector<bool> bits = random_bools(n, rng);
    const BitStream stream = BitStream::pack(bits);
    EXPECT_EQ(stream.size(), n);
    EXPECT_EQ(stream.word_count(), (n + 63) / 64);
    EXPECT_EQ(stream.popcount(), naive_popcount(bits)) << n;
    EXPECT_EQ(stream.transition_count(), naive_transitions(bits)) << n;
    EXPECT_EQ(stream.unpack(), bits) << n;
  }
}

TEST(BitStream, TailWordMaskingInSetWord) {
  BitStream stream(70);  // 6 valid bits in the second word
  stream.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(stream.word(1), 0x3FULL);  // only the low 6 bits survive
  EXPECT_EQ(stream.popcount(), 6u);
}

TEST(BitStream, TailWordMaskingInNot) {
  const BitStream zeros(70);
  const BitStream ones = ~zeros;
  EXPECT_EQ(ones.size(), 70u);
  EXPECT_EQ(ones.popcount(), 70u);  // not 128: the tail stays zero
  EXPECT_EQ((~ones).popcount(), 0u);
  // Exact word multiple: no tail to mask.
  EXPECT_EQ((~BitStream(128)).popcount(), 128u);
}

TEST(BitStream, TailWordMaskingInBitwiseOps) {
  BitStream a(70);
  BitStream b(70);
  for (std::size_t k = 0; k < 70; k += 2) a.set(k, true);
  for (std::size_t k = 0; k < 70; k += 3) b.set(k, true);
  const std::vector<bool> ra = a.unpack();
  const std::vector<bool> rb = b.unpack();
  for (std::size_t k = 0; k < 70; ++k) {
    EXPECT_EQ((a & b)[k], ra[k] && rb[k]);
    EXPECT_EQ((a | b)[k], ra[k] || rb[k]);
    EXPECT_EQ((a ^ b)[k], ra[k] != rb[k]);
  }
  EXPECT_EQ((a & b).popcount() + (a ^ b).popcount(), (a | b).popcount());
}

TEST(BitStream, RangeAndSizeChecks) {
  BitStream stream(10);
  EXPECT_THROW((void)stream.test(10), InvalidArgument);
  EXPECT_THROW(stream.set(10, true), InvalidArgument);
  EXPECT_THROW((void)stream.word(1), InvalidArgument);
  EXPECT_THROW(stream.set_word(1, 0), InvalidArgument);
  const BitStream other(11);
  EXPECT_THROW((void)(stream & other), InvalidArgument);
  EXPECT_THROW((void)(stream | other), InvalidArgument);
  EXPECT_THROW((void)(stream ^ other), InvalidArgument);
  EXPECT_THROW((void)logic::and_popcount(stream, other), InvalidArgument);
  EXPECT_THROW((void)stream.popcount(0, 11), InvalidArgument);
  EXPECT_THROW((void)stream.transition_count(6, 5), InvalidArgument);
  EXPECT_THROW((void)stream.find_zero(11, 11), InvalidArgument);
}

// --------------------------------------------- fuzz vs the naive reference

TEST(BitStream, FuzzBitwiseOpsMatchVectorBool) {
  sim::Rng rng(21);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.below(400);
    const std::vector<bool> ra = random_bools(n, rng);
    const std::vector<bool> rb = random_bools(n, rng);
    const BitStream a = BitStream::pack(ra);
    const BitStream b = BitStream::pack(rb);
    std::vector<bool> and_ref(n), or_ref(n), xor_ref(n), not_ref(n);
    for (std::size_t k = 0; k < n; ++k) {
      and_ref[k] = ra[k] && rb[k];
      or_ref[k] = ra[k] || rb[k];
      xor_ref[k] = ra[k] != rb[k];
      not_ref[k] = !ra[k];
    }
    EXPECT_EQ((a & b).unpack(), and_ref);
    EXPECT_EQ((a | b).unpack(), or_ref);
    EXPECT_EQ((a ^ b).unpack(), xor_ref);
    EXPECT_EQ((~a).unpack(), not_ref);
    EXPECT_EQ(logic::and_popcount(a, b), naive_popcount(and_ref));
    EXPECT_EQ(a.popcount(), naive_popcount(ra));
    EXPECT_EQ(a.transition_count(), naive_transitions(ra));
  }
}

TEST(BitStream, FuzzRangeCountsMatchVectorBool) {
  sim::Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = rng.below(400);
    const std::vector<bool> bits =
        rng.below(3) == 0 ? std::vector<bool>(n, true) : random_bools(n, rng);
    const BitStream stream = BitStream::pack(bits);
    const std::size_t begin = rng.below(n + 1);
    const std::size_t end = begin + rng.below(n - begin + 1);
    const std::vector<bool> range(bits.begin() + begin, bits.begin() + end);
    std::size_t zero = begin;
    while (zero < end && bits[zero]) ++zero;
    EXPECT_EQ(stream.popcount(begin, end), naive_popcount(range))
        << "[" << begin << ", " << end << ") of " << n;
    EXPECT_EQ(stream.transition_count(begin, end), naive_transitions(range))
        << "[" << begin << ", " << end << ") of " << n;
    EXPECT_EQ(stream.find_zero(begin, end), zero)
        << "[" << begin << ", " << end << ") of " << n;
  }
}

// -------------------------------------------------------- CombinationIndex

TEST(CombinationIndex, MasksPartitionSamplesMsbFirst) {
  // 2 inputs, 6 samples; input 0 is the MSB of the combination id.
  const BitStream msb = BitStream::pack({false, false, true, true, false, true});
  const BitStream lsb = BitStream::pack({false, true, false, true, true, true});
  const CombinationIndex index({msb, lsb});
  EXPECT_EQ(index.input_count(), 2u);
  EXPECT_EQ(index.sample_count(), 6u);
  EXPECT_EQ(index.combination_count(), 4u);
  const std::vector<std::size_t> expected_ids = {0, 1, 2, 3, 1, 3};
  for (std::size_t k = 0; k < expected_ids.size(); ++k) {
    EXPECT_EQ(index.id(k), expected_ids[k]) << k;
  }
  EXPECT_EQ(index.count(0), 1u);
  EXPECT_EQ(index.count(1), 2u);
  EXPECT_EQ(index.count(2), 1u);
  EXPECT_EQ(index.count(3), 2u);
  // Masks are disjoint and cover every sample.
  std::size_t total = 0;
  for (std::size_t c = 0; c < index.combination_count(); ++c) {
    total += index.count(c);
    EXPECT_EQ(index.mask(c).popcount(), index.count(c));
    for (std::size_t d = c + 1; d < index.combination_count(); ++d) {
      EXPECT_EQ(logic::and_popcount(index.mask(c), index.mask(d)), 0u);
    }
  }
  EXPECT_EQ(total, index.sample_count());
}

TEST(CombinationIndex, Validation) {
  EXPECT_THROW(CombinationIndex(std::vector<logic::BitStream>{}),
               InvalidArgument);
  EXPECT_THROW(CombinationIndex(std::vector<logic::BitStream>(
                   CombinationIndex::kMaxInputs + 1, BitStream(8))),
               InvalidArgument);
  EXPECT_THROW(CombinationIndex({BitStream(8), BitStream(9)}),
               InvalidArgument);
  EXPECT_THROW((void)CombinationIndex({BitStream(8)}).mask(2),
               InvalidArgument);
  EXPECT_THROW((void)CombinationIndex({BitStream(8)}).id(8), InvalidArgument);
  const CombinationIndex empty;
  EXPECT_EQ(empty.input_count(), 0u);
  EXPECT_EQ(empty.combination_count(), 0u);
}

TEST(CombinationIndex, MaxInputsBoundaryPartitionsMatchReference) {
  // 7 and 8 inputs (kMaxInputs) exercise the widest mask builds: 128 and
  // 256 combinations, most with empty masks at these sample counts. The
  // masks must still partition the samples and agree with the naive
  // classifier.
  sim::Rng rng(81);
  for (const std::size_t n_inputs : {CombinationIndex::kMaxInputs - 1,
                                     CombinationIndex::kMaxInputs}) {
    for (const std::size_t samples : {1ul, 65ul, 300ul}) {
      std::vector<std::vector<bool>> planes;
      std::vector<BitStream> packed;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        planes.push_back(random_bools(samples, rng));
        packed.push_back(BitStream::pack(planes.back()));
      }
      const CombinationIndex index(packed);
      ASSERT_EQ(index.combination_count(), std::size_t{1} << n_inputs);
      std::vector<std::size_t> expected_counts(index.combination_count(), 0);
      for (std::size_t k = 0; k < samples; ++k) {
        std::size_t combination = 0;
        for (std::size_t i = 0; i < n_inputs; ++i) {
          combination = (combination << 1) | (planes[i][k] ? 1U : 0U);
        }
        ++expected_counts[combination];
        ASSERT_EQ(index.id(k), combination)
            << n_inputs << " inputs, sample " << k;
      }
      std::size_t total = 0;
      for (std::size_t c = 0; c < index.combination_count(); ++c) {
        EXPECT_EQ(index.count(c), expected_counts[c])
            << n_inputs << " inputs, combination " << c;
        total += index.count(c);
      }
      EXPECT_EQ(total, samples);
    }
  }
}

TEST(CombinationIndex, FuzzIdsMatchReferenceClassifier) {
  sim::Rng rng(41);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n_inputs = 1 + rng.below(4);
    const std::size_t samples = 1 + rng.below(300);
    std::vector<std::vector<bool>> planes;
    std::vector<BitStream> packed;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      planes.push_back(random_bools(samples, rng));
      packed.push_back(BitStream::pack(planes.back()));
    }
    const CombinationIndex index(packed);
    for (std::size_t k = 0; k < samples; ++k) {
      std::size_t combination = 0;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        combination = (combination << 1) | (planes[i][k] ? 1U : 0U);
      }
      ASSERT_EQ(index.id(k), combination) << "round " << round;
    }
  }
}

// ------------------------------------ packed vs reference analyzer stages

TEST(PackedAnalysis, FuzzRunReductionMatchesReferenceOnRandomPlanes) {
  // Dense random input planes: a run of about two samples on average,
  // the walker's worst case.
  sim::Rng rng(51);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n_inputs = 1 + rng.below(3);
    const std::size_t samples = 1 + rng.below(600);
    core::DigitalData data;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      data.inputs.push_back(random_bools(samples, rng));
    }
    data.output = random_bools(samples, rng);

    const core::VariationAnalysis reference =
        core::analyze_variation(core::analyze_cases(data));
    const core::VariationAnalysis runs = core::analyze_runs(core::pack(data));

    ASSERT_EQ(runs.input_count, reference.input_count);
    ASSERT_EQ(runs.records.size(), reference.records.size());
    for (std::size_t c = 0; c < reference.records.size(); ++c) {
      const auto& r = reference.records[c];
      const auto& p = runs.records[c];
      EXPECT_EQ(p.combination, r.combination);
      EXPECT_EQ(p.case_count, r.case_count) << "round " << round << " c " << c;
      EXPECT_EQ(p.high_count, r.high_count) << "round " << round << " c " << c;
      EXPECT_EQ(p.variation_count, r.variation_count)
          << "round " << round << " c " << c;
      // Same integers divided in the same order: bit-identical doubles.
      EXPECT_EQ(p.fov_est, r.fov_est);
    }
  }
}

TEST(PackedAnalysis, AnalyzePackedKeepsCaseCountsDropsStreams) {
  core::DigitalData data;
  data.inputs.push_back({false, false, true, true, false});
  data.output = {true, false, true, true, false};
  const core::CaseAnalysis counts =
      core::LogicAnalyzer().analyze_packed(core::pack(data), {"A"}, "Y").cases;
  const core::CaseAnalysis reference = core::analyze_cases(data);
  ASSERT_EQ(counts.cases.size(), reference.cases.size());
  for (std::size_t c = 0; c < counts.cases.size(); ++c) {
    EXPECT_EQ(counts.cases[c].combination, reference.cases[c].combination);
    EXPECT_EQ(counts.cases[c].case_count, reference.cases[c].case_count);
    EXPECT_TRUE(counts.cases[c].output_stream.empty());
  }
}

TEST(PackedAnalysis, EmptyPlanesHaveNoRuns) {
  core::PackedDigitalData data;
  data.inputs.assign(2, BitStream());
  logic::InputRunWalker walker(data.inputs);
  logic::InputRun run;
  EXPECT_FALSE(walker.next(run));
  const core::VariationAnalysis runs = core::analyze_runs(data);
  ASSERT_EQ(runs.records.size(), 4u);
  for (const core::VariationRecord& record : runs.records) {
    EXPECT_EQ(record.case_count, 0u);
    EXPECT_EQ(record.fov_est, 0.0);
  }
}

TEST(PackedAnalysis, RunReductionValidatesItsPlanes) {
  core::PackedDigitalData data;
  data.output = BitStream(8);
  EXPECT_THROW((void)core::analyze_runs(data), InvalidArgument);
  data.inputs.assign(17, BitStream(8));
  EXPECT_THROW((void)core::analyze_runs(data), InvalidArgument);
  data.inputs = {BitStream(8), BitStream(9)};
  EXPECT_THROW((void)core::analyze_runs(data), InvalidArgument);
  data.inputs = {BitStream(9)};
  EXPECT_THROW((void)core::analyze_runs(data), InvalidArgument);
}

// ------------------------------ the production reduction vs its oracles

/// Case_I, HIGH_O and O_Var through the CombinationIndex masks: popcounts
/// for the first two; for O_Var, a walk over each mask's selected samples
/// in sample order, which is the compacted stream the reference logs.
core::VariationAnalysis mask_oracle(const core::PackedDigitalData& data) {
  const CombinationIndex index(data.inputs);
  core::VariationAnalysis analysis;
  analysis.input_count = index.input_count();
  analysis.records.resize(index.combination_count());
  for (std::size_t c = 0; c < analysis.records.size(); ++c) {
    core::VariationRecord& record = analysis.records[c];
    record.combination = c;
    record.case_count = index.count(c);
    record.high_count = logic::and_popcount(index.mask(c), data.output);
    const std::span<const std::uint64_t> words = index.mask(c).words();
    bool seen = false;
    bool last = false;
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const bool bit =
            data.output[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        if (seen && bit != last) ++record.variation_count;
        seen = true;
        last = bit;
      }
    }
    record.fov_est = record.case_count > 0
                         ? static_cast<double>(record.variation_count) /
                               static_cast<double>(record.case_count)
                         : 0.0;
  }
  return analysis;
}

void expect_records_equal(const core::VariationAnalysis& actual,
                          const core::VariationAnalysis& expected,
                          const std::string& context) {
  ASSERT_EQ(actual.input_count, expected.input_count) << context;
  ASSERT_EQ(actual.records.size(), expected.records.size()) << context;
  for (std::size_t c = 0; c < expected.records.size(); ++c) {
    const core::VariationRecord& a = actual.records[c];
    const core::VariationRecord& e = expected.records[c];
    // Plain compares first: at 16 inputs there are 2^16 records per case.
    if (a.combination == e.combination && a.case_count == e.case_count &&
        a.high_count == e.high_count &&
        a.variation_count == e.variation_count && a.fov_est == e.fov_est) {
      continue;
    }
    ASSERT_EQ(a.combination, e.combination) << context;
    ASSERT_EQ(a.case_count, e.case_count) << context << ", c " << c;
    ASSERT_EQ(a.high_count, e.high_count) << context << ", c " << c;
    ASSERT_EQ(a.variation_count, e.variation_count) << context << ", c " << c;
    // Same integers divided in the same order: bit-identical doubles.
    ASSERT_EQ(a.fov_est, e.fov_est) << context << ", c " << c;
  }
}

std::vector<std::string> input_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back(std::string("I").append(std::to_string(i)));
  }
  return names;
}

/// analyze_packed against the reference stages (analyze_cases, then
/// analyze_variation) and the mask oracle. construct_bool_expr reads only
/// the records, so equal records give an equal construction. Past the
/// masks' 8 inputs, the run reduction analyze_packed runs is held to the
/// reference alone: minimizing 2^N mostly unobserved rows is out of a
/// unit test's reach.
void expect_analysis_matches(const core::DigitalData& data,
                             const std::string& context) {
  const std::vector<std::string> names = input_names(data.input_count());
  const core::PackedDigitalData packed = core::pack(data);
  if (data.input_count() > CombinationIndex::kMaxInputs) {
    expect_records_equal(core::analyze_runs(packed),
                         core::analyze_variation(core::analyze_cases(data)),
                         context + " vs reference");
    return;
  }
  const core::ExtractionResult result =
      core::LogicAnalyzer().analyze_packed(packed, names, "Y");
  const core::VariationAnalysis reference =
      core::analyze_variation(core::analyze_cases(data));

  expect_records_equal(result.variation, reference, context + " vs reference");
  expect_records_equal(result.variation, mask_oracle(packed),
                       context + " vs masks");
  ASSERT_EQ(result.cases.cases.size(), reference.records.size()) << context;
  for (std::size_t c = 0; c < reference.records.size(); ++c) {
    ASSERT_EQ(result.cases.cases[c].case_count,
              reference.records[c].case_count)
        << context;
  }
}

TEST(RunReduction, FuzzAnalysisMatchesReferenceAndMasks) {
  sim::Rng rng(0x7255);
  for (std::size_t inputs = 1; inputs <= 16; ++inputs) {
    for_each_run_layout(inputs, rng,
                        [&](const core::DigitalData& data,
                            const std::string& context) {
                          if (!HasFatalFailure()) {
                            expect_analysis_matches(data, context);
                          }
                        });
  }
}

/// A combination interrupted and resumed: its last sample before the gap
/// is compared with its first sample after it, exactly as in the
/// compacted stream the reference logs (docs/ANALYSIS.md).
TEST(RunReduction, GapAtWordBoundaryMatchesCompactedReference) {
  // Samples 0..191; combination 1 holds words 0 and 2, combination 0 the
  // word between. The output is 1 on word 0 and 0 after it, so
  // combination 1's compacted stream is 64 ones then 64 zeros: exactly one
  // variation, across the gap.
  core::DigitalData example;
  example.inputs.assign(1, std::vector<bool>(192, true));
  example.output.assign(192, false);
  for (std::size_t k = 64; k < 128; ++k) example.inputs[0][k] = false;
  for (std::size_t k = 0; k < 64; ++k) example.output[k] = true;
  const core::ExtractionResult result =
      core::LogicAnalyzer().analyze_packed(core::pack(example), {"A"}, "Y");
  EXPECT_EQ(result.variation.records[1].variation_count, 1u);
  EXPECT_EQ(result.variation.records[0].variation_count, 0u);
  expect_analysis_matches(example, "worked example");

  // Every gap placement around the first word boundary, against random,
  // toggling and constant outputs.
  const std::size_t n = 256;
  sim::Rng rng(0x6A9);
  for (const std::size_t gap_start : {1, 62, 63, 64, 65, 126}) {
    for (const std::size_t gap_length : {1, 2, 64, 65, 130}) {
      core::DigitalData data;
      data.inputs.assign(1, std::vector<bool>(n, true));
      for (std::size_t k = gap_start; k < std::min(n, gap_start + gap_length);
           ++k) {
        data.inputs[0][k] = false;
      }
      std::vector<bool> toggled(n);
      for (std::size_t k = 0; k < n; ++k) toggled[k] = k % 2 == 0;
      for (const std::vector<bool>& output :
           {random_bools(n, rng), toggled, std::vector<bool>(n, true)}) {
        data.output = output;
        expect_analysis_matches(data, std::string("gap at ") +
                                          std::to_string(gap_start) + "+" +
                                          std::to_string(gap_length));
      }
    }
  }
}

TEST(RunReduction, AnalyzePackedTakesSixteenInputs) {
  // A clamped sweep over 16 inputs: every combination held for two
  // samples, the output high on the last one. No combination passes the
  // majority filter, so the minimization stays trivial.
  core::DigitalData data;
  data.inputs.assign(16, std::vector<bool>(std::size_t{2} << 16));
  for (std::size_t k = 0; k < data.inputs[0].size(); ++k) {
    for (std::size_t i = 0; i < 16; ++i) {
      data.inputs[i][k] = (((k / 2) >> (15 - i)) & 1U) != 0;
    }
    data.output.push_back(k % 2 == 1);
  }
  const std::vector<std::string> names = input_names(16);
  const core::LogicAnalyzer analyzer;
  const core::ExtractionResult packed =
      analyzer.analyze_packed(core::pack(data), names, "Y");
  const core::ExtractionResult reference =
      analyzer.analyze_digital(data, names, "Y");
  expect_records_equal(packed.variation, reference.variation, "16 inputs");
  EXPECT_EQ(packed.variation.records[5].case_count, 2u);
  EXPECT_EQ(packed.variation.records[5].variation_count, 1u);
  EXPECT_EQ(packed.expression(), reference.expression());
  EXPECT_EQ(packed.fitness(), reference.fitness());
}

TEST(PackedAnalysis, DigitizePackedMatchesDigitize) {
  sim::Rng rng(61);
  sim::Trace trace({"A", "GFP", "B"});
  for (std::size_t k = 0; k < 257; ++k) {
    trace.append(static_cast<double>(k),
                 {rng.normal() * 10.0 + 15.0, rng.normal() * 10.0 + 15.0,
                  rng.normal() * 10.0 + 15.0});
  }
  const core::DigitalData reference =
      core::digitize(trace, {"B", "A"}, "GFP", 15.0);
  const core::DigitalData packed =
      core::unpack(core::digitize_packed(trace, {"B", "A"}, "GFP", 15.0));
  EXPECT_EQ(packed.inputs, reference.inputs);
  EXPECT_EQ(packed.output, reference.output);
  // The same refusals: no inputs (checked first), an unknown id, a
  // non-positive threshold.
  try {
    (void)core::digitize_packed(trace, {}, "missing", 0.0);
    ADD_FAILURE() << "an empty input list must be refused";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("at least one input"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)core::digitize_packed(trace, {"A"}, "missing", 15.0),
               InvalidArgument);
  EXPECT_THROW((void)core::digitize_packed(trace, {"A"}, "GFP", 0.0),
               InvalidArgument);
}

TEST(PackedAnalysis, PackUnpackRoundTrip) {
  sim::Rng rng(71);
  core::DigitalData data;
  data.inputs.push_back(random_bools(100, rng));
  data.inputs.push_back(random_bools(100, rng));
  data.output = random_bools(100, rng);
  const core::PackedDigitalData packed = core::pack(data);
  EXPECT_EQ(packed.input_count(), data.input_count());
  EXPECT_EQ(packed.sample_count(), data.sample_count());
  const core::DigitalData back = core::unpack(packed);
  EXPECT_EQ(back.inputs, data.inputs);
  EXPECT_EQ(back.output, data.output);
}

}  // namespace
