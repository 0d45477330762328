// Unit tests for glva_core: ADC, CaseAnalyzer, VariationAnalyzer, the two
// filters, PFoBE, verification, baselines, and reports — including the
// paper's own worked numbers from Figures 2 and 4.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/adc.h"
#include "core/baseline.h"
#include "core/bool_constructor.h"
#include "core/case_analyzer.h"
#include "core/experiment.h"
#include "core/logic_analyzer.h"
#include "core/record_sink.h"
#include "core/report.h"
#include "core/threshold_sweep.h"
#include "core/variation_analyzer.h"
#include "core/verifier.h"
#include "fuzz_util.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "store/digitizing_sink.h"
#include "util/errors.h"

namespace {

using namespace glva;
using namespace glva::core;

// -------------------------------------------------------------------- ADC

TEST(Adc, ThresholdIsInclusive) {
  const auto bits = adc({0.0, 14.9, 15.0, 15.1, 100.0}, 15.0);
  EXPECT_EQ(bits, (std::vector<bool>{false, false, true, true, true}));
}

TEST(Adc, RejectsNonPositiveThreshold) {
  EXPECT_THROW((void)adc({1.0}, 0.0), InvalidArgument);
  EXPECT_THROW((void)adc({1.0}, -3.0), InvalidArgument);
}

TEST(Adc, DigitizeSelectsSpecies) {
  sim::Trace trace({"A", "B", "GFP"});
  trace.append(0.0, {15.0, 0.0, 20.0});
  trace.append(1.0, {0.0, 15.0, 3.0});
  const DigitalData data = digitize(trace, {"A", "B"}, "GFP", 15.0);
  EXPECT_EQ(data.input_count(), 2u);
  EXPECT_EQ(data.sample_count(), 2u);
  EXPECT_TRUE(data.inputs[0][0]);
  EXPECT_FALSE(data.inputs[0][1]);
  EXPECT_TRUE(data.output[0]);
  EXPECT_FALSE(data.output[1]);
  EXPECT_THROW((void)digitize(trace, {}, "GFP", 15.0), InvalidArgument);
  EXPECT_THROW((void)digitize(trace, {"Nope"}, "GFP", 15.0), InvalidArgument);
}

// ---------------------------------------------------------- case analyzer

DigitalData two_input_data(const std::vector<int>& combos,
                           const std::vector<bool>& output) {
  DigitalData data;
  data.inputs.assign(2, {});
  for (std::size_t k = 0; k < combos.size(); ++k) {
    data.inputs[0].push_back((combos[k] & 2) != 0);
    data.inputs[1].push_back((combos[k] & 1) != 0);
    data.output.push_back(output[k]);
  }
  return data;
}

TEST(CaseAnalyzer, PartitionsSamplesByCombination) {
  const auto data = two_input_data({0, 0, 1, 3, 3, 3, 0},
                                   {true, false, true, true, true, false, false});
  const CaseAnalysis analysis = analyze_cases(data);
  ASSERT_EQ(analysis.cases.size(), 4u);
  EXPECT_EQ(analysis.cases[0].case_count, 3u);
  EXPECT_EQ(analysis.cases[1].case_count, 1u);
  EXPECT_EQ(analysis.cases[2].case_count, 0u);
  EXPECT_EQ(analysis.cases[3].case_count, 3u);
  // Streams preserve sample order within a case.
  EXPECT_EQ(analysis.cases[0].output_stream,
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(analysis.cases[3].output_stream,
            (std::vector<bool>{true, true, false}));
}

TEST(CaseAnalyzer, CaseCountEqualsStreamLength) {
  // "the value of Case_I[i] will always be equivalent to the length of its
  // corresponding output data stream" (the paper, Section II).
  const auto data = two_input_data({0, 1, 2, 3, 2, 1}, std::vector<bool>(6));
  for (const auto& record : analyze_cases(data).cases) {
    EXPECT_EQ(record.case_count, record.output_stream.size());
  }
}

TEST(CaseAnalyzer, ValidatesInput) {
  DigitalData empty;
  EXPECT_THROW((void)analyze_cases(empty), InvalidArgument);
  DigitalData ragged;
  ragged.inputs = {{true, false}, {true}};
  ragged.output = {true, false};
  EXPECT_THROW((void)analyze_cases(ragged), InvalidArgument);
}

// ----------------------------------------------------- variation analyzer

TEST(VariationAnalyzer, CountsHighsAndTransitions) {
  CaseAnalysis cases;
  cases.input_count = 1;
  cases.cases.resize(2);
  cases.cases[0].combination = 0;
  cases.cases[0].case_count = 8;
  cases.cases[0].output_stream = {false, true, true, false, false,
                                  true,  false, false};
  cases.cases[1].combination = 1;
  const VariationAnalysis analysis = analyze_variation(cases);
  EXPECT_EQ(analysis.records[0].high_count, 3u);
  EXPECT_EQ(analysis.records[0].variation_count, 4u);  // 0->1,1->0,0->1,1->0
  EXPECT_DOUBLE_EQ(analysis.records[0].fov_est, 4.0 / 8.0);
  EXPECT_EQ(analysis.records[1].case_count, 0u);
  EXPECT_DOUBLE_EQ(analysis.records[1].fov_est, 0.0);
}

TEST(VariationAnalyzer, SingleGlitchHasTwoVariations) {
  // The paper's Figure 2(b) case 00: three 1s in one pulse -> O_Var = 2.
  CaseAnalysis cases;
  cases.input_count = 1;
  cases.cases.resize(2);
  cases.cases[0].combination = 0;
  std::vector<bool> stream(1850, false);
  for (std::size_t k = 900; k < 903; ++k) stream[k] = true;
  cases.cases[0].case_count = stream.size();
  cases.cases[0].output_stream = stream;
  const VariationAnalysis analysis = analyze_variation(cases);
  EXPECT_EQ(analysis.records[0].high_count, 3u);
  EXPECT_EQ(analysis.records[0].variation_count, 2u);
  EXPECT_NEAR(analysis.records[0].fov_est, 2.0 / 1850.0, 1e-12);
}

// ------------------------------------------------------------ record sink

/// One delivery of the record-sink fuzz: `length` samples of one value
/// row, as one hold, as rows, or as one column block.
struct RecordDelivery {
  enum class Call { kHold, kRows, kBlock };
  Call call = Call::kHold;
  std::size_t length = 0;
  std::vector<double> values;
};

constexpr double kRecordThreshold = 15.0;

/// The tracked ids: inputs I0 (MSB) .. I<N-1>, then OUT.
std::vector<std::string> record_ids(std::size_t inputs) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < inputs; ++i) {
    ids.push_back(std::string("I").append(std::to_string(i)));
  }
  ids.push_back("OUT");
  return ids;
}

/// The stream's columns: a decoy, the output, then the inputs in reverse,
/// so each tracked id resolves to a column of its own.
std::vector<std::string> record_stream_names(std::size_t inputs) {
  std::vector<std::string> names = {"X", "OUT"};
  for (std::size_t i = inputs; i-- > 0;) {
    names.push_back(std::string("I").append(std::to_string(i)));
  }
  return names;
}

/// Draws value rows from testutil::special_doubles, split by the ADC's
/// `>=` into the values that read 1 and those that read 0 (NaN among them).
class RecordRows {
public:
  RecordRows(std::size_t inputs, sim::Rng& rng) : inputs_(inputs), rng_(rng) {
    for (const double v :
         testutil::special_doubles(4096, kRecordThreshold, rng_)) {
      (v >= kRecordThreshold ? highs_ : lows_).push_back(v);
    }
  }

  /// A row carrying `combination` (input 0 = MSB) and output `bit`.
  std::vector<double> row(std::size_t combination, bool bit) {
    std::vector<double> values(2 + inputs_);
    values[0] = pick(rng_.below(2) == 1);
    values[1] = pick(bit);
    for (std::size_t i = 0; i < inputs_; ++i) {
      values[2 + (inputs_ - 1 - i)] =
          pick(((combination >> (inputs_ - 1 - i)) & 1U) != 0);
    }
    return values;
  }

private:
  double pick(bool high) {
    const std::vector<double>& from = high ? highs_ : lows_;
    return from[rng_.below(from.size())];
  }

  std::size_t inputs_;
  sim::Rng& rng_;
  std::vector<double> highs_;
  std::vector<double> lows_;
};

void deliver_records(const std::vector<RecordDelivery>& deliveries,
                     std::size_t inputs, store::TraceSink& sink) {
  sink.begin(record_stream_names(inputs));
  std::size_t position = 0;
  std::vector<double> times;
  for (const RecordDelivery& d : deliveries) {
    times.resize(d.length);
    for (std::size_t i = 0; i < d.length; ++i) {
      times[i] = static_cast<double>(position + i);
    }
    switch (d.call) {
      case RecordDelivery::Call::kHold:
        sink.append_hold(times, d.values);
        break;
      case RecordDelivery::Call::kRows:
        for (const double time : times) sink.append(time, d.values);
        break;
      case RecordDelivery::Call::kBlock: {
        std::vector<std::vector<double>> columns;
        std::vector<std::span<const double>> spans;
        for (const double v : d.values) columns.emplace_back(d.length, v);
        for (const auto& column : columns) spans.emplace_back(column);
        sink.append_block(times, spans);
        break;
      }
    }
    position += d.length;
  }
  sink.finish();
}

/// Holds of 0, 1, 63, 64, 65 and 4096 samples, each after a pad of 0-63
/// samples that moves it to a random word offset. Combinations come from a
/// pool of three (0, 2^N - 1 and one more), so each is regularly resumed
/// after a gap, with the same output bit or a flipped one. Every call kind
/// delivers some of them.
std::vector<RecordDelivery> random_record_deliveries(std::size_t inputs,
                                                     std::size_t holds,
                                                     sim::Rng& rng) {
  constexpr std::size_t kLengths[] = {0, 1, 63, 64, 65, 4096};
  const std::size_t combinations = std::size_t{1} << inputs;
  const std::size_t pool[] = {0, combinations - 1, rng.below(combinations)};
  RecordRows rows(inputs, rng);
  const auto call = [&] {
    return static_cast<RecordDelivery::Call>(rng.below(3));
  };
  std::vector<RecordDelivery> deliveries;
  for (std::size_t h = 0; h < holds; ++h) {
    if (rng.below(2) == 0) {
      deliveries.push_back({call(), rng.below(64),
                            rows.row(pool[rng.below(3)], rng.below(2) == 1)});
    }
    deliveries.push_back({call(), kLengths[rng.below(std::size(kLengths))],
                          rows.row(pool[rng.below(3)], rng.below(2) == 1)});
  }
  return deliveries;
}

void expect_same_records(const VariationAnalysis& got,
                         const VariationAnalysis& want,
                         const std::string& label) {
  ASSERT_EQ(got.input_count, want.input_count) << label;
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (std::size_t c = 0; c < got.records.size(); ++c) {
    const VariationRecord& g = got.records[c];
    const VariationRecord& w = want.records[c];
    ASSERT_EQ(g.combination, w.combination) << label << ", combination " << c;
    ASSERT_EQ(g.case_count, w.case_count) << label << ", combination " << c;
    ASSERT_EQ(g.high_count, w.high_count) << label << ", combination " << c;
    ASSERT_EQ(g.variation_count, w.variation_count)
        << label << ", combination " << c;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.fov_est),
              std::bit_cast<std::uint64_t>(w.fov_est))
        << label << ", combination " << c;
  }
}

/// The sink's counts against both plane oracles fed the same deliveries:
/// analyze_runs over a DigitizingSink's planes, and the reference stages
/// over the same planes unpacked.
void expect_records_match_oracles(const std::vector<RecordDelivery>& deliveries,
                                  std::size_t inputs, const std::string& label) {
  std::vector<std::string> input_ids = record_ids(inputs);
  input_ids.pop_back();
  RecordSink records(input_ids, "OUT", kRecordThreshold);
  deliver_records(deliveries, inputs, records);
  store::DigitizingSink digitizer(record_ids(inputs), kRecordThreshold);
  deliver_records(deliveries, inputs, digitizer);
  const PackedDigitalData planes = take_digitized(digitizer, inputs);

  const VariationAnalysis counted = records.take();
  expect_same_records(counted, analyze_runs(planes),
                      label + " vs analyze_runs");
  expect_same_records(counted,
                      analyze_variation(analyze_cases(unpack(planes))),
                      label + " vs the reference stages");
}

TEST(RecordSink, HoldsMatchThePlaneOraclesOnSpecialValues) {
  sim::Rng rng(2601);
  for (std::size_t inputs = 1; inputs <= 8; ++inputs) {
    for (int round = 0; round < 6; ++round) {
      expect_records_match_oracles(
          random_record_deliveries(inputs, 40, rng), inputs,
          "N " + std::to_string(inputs) + ", round " + std::to_string(round));
    }
  }
  // Past 8 inputs only the edge cases: each record table has 2^N entries,
  // and the wider ids change nothing in the per-hold arithmetic.
  for (std::size_t inputs = 9; inputs <= 16; ++inputs) {
    expect_records_match_oracles(random_record_deliveries(inputs, 8, rng),
                                 inputs, "N " + std::to_string(inputs));
  }
}

TEST(RecordSink, ResumedCombinationsCountTheGapLikeTheCompactedStream) {
  // Two inputs; combination 1 resumes after a gap with the output bit it
  // left on, combination 2 with a flipped one. The zero-length holds carry
  // flipped bits and must log nothing.
  sim::Rng rng(2602);
  RecordRows rows(2, rng);
  using Call = RecordDelivery::Call;
  const std::vector<RecordDelivery> deliveries = {
      {Call::kHold, 5, rows.row(1, true)},
      {Call::kHold, 3, rows.row(2, false)},
      {Call::kHold, 0, rows.row(1, false)},
      {Call::kRows, 4, rows.row(1, true)},
      {Call::kHold, 0, rows.row(2, false)},
      {Call::kHold, 2, rows.row(2, true)},
      {Call::kBlock, 0, rows.row(2, false)},
      {Call::kHold, 1, rows.row(2, true)},
  };
  RecordSink records({"I0", "I1"}, "OUT", kRecordThreshold);
  deliver_records(deliveries, 2, records);
  const VariationAnalysis analysis = records.take();
  EXPECT_EQ(analysis.records[1].case_count, 9u);
  EXPECT_EQ(analysis.records[1].high_count, 9u);
  EXPECT_EQ(analysis.records[1].variation_count, 0u);
  EXPECT_EQ(analysis.records[2].case_count, 6u);
  EXPECT_EQ(analysis.records[2].high_count, 3u);
  EXPECT_EQ(analysis.records[2].variation_count, 1u);
  EXPECT_EQ(analysis.records[2].fov_est, 1.0 / 6.0);
  EXPECT_EQ(analysis.records[0].case_count, 0u);
  EXPECT_EQ(analysis.records[0].fov_est, 0.0);
  expect_records_match_oracles(deliveries, 2, "resumed combinations");
  // Zero-length holds alone leave every record empty.
  expect_records_match_oracles({{Call::kHold, 0, rows.row(3, true)}}, 2,
                               "only a zero-length hold");
}

TEST(RecordSink, ValidatesArguments) {
  EXPECT_THROW(RecordSink({}, "OUT", 15.0), InvalidArgument);
  EXPECT_THROW(RecordSink(std::vector<std::string>(17, "A"), "OUT", 15.0),
               InvalidArgument);
  EXPECT_THROW(RecordSink({"A"}, "OUT", 0.0), InvalidArgument);
  EXPECT_THROW(
      RecordSink({"A"}, "OUT", std::numeric_limits<double>::quiet_NaN()),
      InvalidArgument);
  // An unknown id names the species, as the packed ADC does.
  RecordSink missing({"A"}, "NOPE", 15.0);
  try {
    missing.begin({"A", "OUT"});
    ADD_FAILURE() << "unknown output id accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_EQ(std::string(error.what()),
              "DigitizingSink: unknown species 'NOPE'");
  }
  RecordSink narrow({"B"}, "OUT", 15.0);
  narrow.begin({"A", "OUT", "B"});
  const std::vector<double> times = {0.0};
  EXPECT_THROW(narrow.append_hold(times, {1.0, 2.0}), InvalidArgument);
}

// ------------------------------------------------------------ the filters

/// Build a VariationAnalysis directly (unit-testing the constructor without
/// streams).
VariationAnalysis stats2(std::size_t n00, std::size_t h00, std::size_t v00,
                         std::size_t n11, std::size_t h11, std::size_t v11) {
  VariationAnalysis analysis;
  analysis.input_count = 2;
  analysis.records.resize(4);
  for (std::size_t c = 0; c < 4; ++c) analysis.records[c].combination = c;
  analysis.records[0] = {0, n00, h00, v00,
                         n00 ? static_cast<double>(v00) / n00 : 0.0};
  analysis.records[3] = {3, n11, h11, v11,
                         n11 ? static_cast<double>(v11) / n11 : 0.0};
  // Middle combinations observed low and stable.
  analysis.records[1] = {1, 100, 0, 0, 0.0};
  analysis.records[2] = {2, 100, 0, 0, 0.0};
  return analysis;
}

TEST(BoolConstructor, ReproducesPaperFigure2Numbers) {
  // Figure 2(b): case 00 -> Case_I 1850, 3 ones, 2 variations; case 11 ->
  // Case_I 3050, 1875 ones, 7 variations. With FOV_UD = 0.25 the result
  // must be AND (11 only), not XNOR.
  const auto analysis = stats2(1850, 3, 2, 3050, 1875, 7);
  const auto result = construct_bool_expr(analysis, 0.25, {"A", "B"});

  // FOV_EST values match the paper: 2/1850 and 7/3050.
  EXPECT_NEAR(analysis.records[0].fov_est, 2.0 / 1850.0, 1e-12);
  EXPECT_NEAR(analysis.records[3].fov_est, 7.0 / 3050.0, 1e-12);
  // Filter 2 (eq. 2): 3 << 1850/2 fails, 1875 > 3050/2 passes.
  EXPECT_FALSE(result.outcomes[0].filter2_pass);
  EXPECT_TRUE(result.outcomes[3].filter2_pass);
  // Both filters together: AND.
  EXPECT_EQ(result.minimized.to_string(), "A·B");
  EXPECT_EQ(result.extracted.minterms(), (std::vector<std::size_t>{3}));
  // PFoBE = 100 - ((7/3050) / 4) * 100.
  EXPECT_NEAR(result.fitness_percent, 100.0 - (7.0 / 3050.0) / 4.0 * 100.0,
              1e-9);
}

TEST(BoolConstructor, MajorityBoundaryIsStrict) {
  // HIGH_O must be strictly greater than Case_I / 2 (equation (2)).
  const auto exactly_half = stats2(100, 50, 0, 100, 51, 0);
  const auto result = construct_bool_expr(exactly_half, 0.25, {"A", "B"});
  EXPECT_FALSE(result.outcomes[0].filter2_pass);  // 50 is not > 50
  EXPECT_TRUE(result.outcomes[3].filter2_pass);   // 51 is
}

TEST(BoolConstructor, StabilityBoundaryIsStrict) {
  // FOV_EST must be strictly below FOV_UD (equation (1)).
  const auto at_limit = stats2(100, 80, 25, 100, 80, 24);
  const auto result = construct_bool_expr(at_limit, 0.25, {"A", "B"});
  EXPECT_FALSE(result.outcomes[0].filter1_pass);  // 0.25 not < 0.25
  EXPECT_TRUE(result.outcomes[3].filter1_pass);   // 0.24 is
  // The majority-high-but-unstable case is reported as such.
  EXPECT_EQ(result.outcomes[0].verdict, CaseVerdict::kUnstable);
  EXPECT_EQ(result.unstable, (std::vector<std::size_t>{0}));
}

TEST(BoolConstructor, UnobservedCombinationsBecomeDontCares) {
  VariationAnalysis analysis;
  analysis.input_count = 2;
  analysis.records.resize(4);
  for (std::size_t c = 0; c < 4; ++c) analysis.records[c].combination = c;
  // Only combos 1 and 3 observed; 1 is high, 3 is low. 0 and 2 unseen.
  analysis.records[1] = {1, 100, 95, 2, 0.02};
  analysis.records[3] = {3, 100, 1, 2, 0.02};
  const auto result = construct_bool_expr(analysis, 0.25, {"A", "B"});
  EXPECT_EQ(result.unobserved, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(result.outcomes[0].verdict, CaseVerdict::kUnobserved);
  // Minimization may exploit the unobserved rows: {1} + dc{0,2} -> B ... but
  // never cover observed-low combo 3.
  EXPECT_TRUE(result.minimized.evaluate(1));
  EXPECT_FALSE(result.minimized.evaluate(3));
}

TEST(BoolConstructor, PfobeIs100WhenNoVariation) {
  const auto clean = stats2(100, 0, 0, 100, 100, 0);
  const auto result = construct_bool_expr(clean, 0.25, {"A", "B"});
  EXPECT_DOUBLE_EQ(result.fitness_percent, 100.0);
}

TEST(BoolConstructor, ValidatesArguments) {
  const auto analysis = stats2(10, 0, 0, 10, 10, 0);
  EXPECT_THROW((void)construct_bool_expr(analysis, 0.0, {"A", "B"}),
               InvalidArgument);
  EXPECT_THROW((void)construct_bool_expr(analysis, 1.5, {"A", "B"}),
               InvalidArgument);
  EXPECT_THROW((void)construct_bool_expr(analysis, 0.25, {"A"}),
               InvalidArgument);
}

// --------------------------------------------------------------- baseline

TEST(Baseline, RulesDifferOnGlitchData) {
  // Figure 2 numbers again: any-high reads XNOR, the paper's rule reads AND.
  const auto analysis = stats2(1850, 3, 2, 3050, 1875, 7);
  EXPECT_EQ(extract_with_rule(analysis, BaselineRule::kAnyHigh, 0.25)
                .minterms(),
            (std::vector<std::size_t>{0, 3}));  // XNOR
  EXPECT_EQ(extract_with_rule(analysis, BaselineRule::kStabilityOnly, 0.25)
                .minterms(),
            (std::vector<std::size_t>{0, 3}));  // still XNOR
  EXPECT_EQ(extract_with_rule(analysis, BaselineRule::kMajorityOnly, 0.25)
                .minterms(),
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(extract_with_rule(analysis, BaselineRule::kBothFilters, 0.25)
                .minterms(),
            (std::vector<std::size_t>{3}));
}

TEST(Baseline, MajorityOnlyAcceptsOscillatoryStreams) {
  // Figure 3: majority-high but maximally oscillatory.
  const auto analysis = stats2(100, 0, 0, 1000, 600, 799);
  EXPECT_TRUE(extract_with_rule(analysis, BaselineRule::kMajorityOnly, 0.5)
                  .output(3));
  EXPECT_FALSE(extract_with_rule(analysis, BaselineRule::kBothFilters, 0.5)
                   .output(3));
}

TEST(Baseline, NamesAreStable) {
  EXPECT_NE(baseline_rule_name(BaselineRule::kAnyHigh), std::string{});
  EXPECT_NE(baseline_rule_name(BaselineRule::kBothFilters),
            baseline_rule_name(BaselineRule::kMajorityOnly));
}

// --------------------------------------------------------------- analyzer

TEST(LogicAnalyzer, EndToEndOnSyntheticTrace) {
  // A perfect inverter trace: 200 samples low input/high output, then the
  // reverse.
  sim::Trace trace({"In", "Out"});
  for (int k = 0; k < 400; ++k) {
    const bool second_half = k >= 200;
    trace.append(k, {second_half ? 20.0 : 0.0, second_half ? 1.0 : 50.0});
  }
  const LogicAnalyzer analyzer(AnalyzerConfig{15.0, 0.25});
  const ExtractionResult result = analyzer.analyze(trace, {"In"}, "Out");
  EXPECT_EQ(result.expression(), "In'");
  EXPECT_DOUBLE_EQ(result.fitness(), 100.0);
  EXPECT_EQ(result.input_count, 1u);
  EXPECT_EQ(result.output_name, "Out");
}

TEST(LogicAnalyzer, ConfigIsValidated) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(LogicAnalyzer(AnalyzerConfig{0.0, 0.25}), InvalidArgument);
  EXPECT_THROW(LogicAnalyzer(AnalyzerConfig{nan, 0.25}), InvalidArgument);
  EXPECT_THROW(LogicAnalyzer(AnalyzerConfig{15.0, 0.0}), InvalidArgument);
  EXPECT_THROW(LogicAnalyzer(AnalyzerConfig{15.0, 2.0}), InvalidArgument);
  EXPECT_THROW(LogicAnalyzer(AnalyzerConfig{15.0, nan}), InvalidArgument);
}

/// Everything downstream stages consume must agree bit for bit between
/// analyze_packed and the reference stages (the two may differ only in
/// cases.output_stream materialization).
void expect_same_extraction(const ExtractionResult& packed,
                            const ExtractionResult& reference) {
  ASSERT_EQ(packed.variation.records.size(),
            reference.variation.records.size());
  for (std::size_t c = 0; c < reference.variation.records.size(); ++c) {
    const auto& r = reference.variation.records[c];
    const auto& p = packed.variation.records[c];
    EXPECT_EQ(p.case_count, r.case_count) << c;
    EXPECT_EQ(p.high_count, r.high_count) << c;
    EXPECT_EQ(p.variation_count, r.variation_count) << c;
    EXPECT_EQ(p.fov_est, r.fov_est) << c;
    EXPECT_EQ(packed.cases.cases[c].case_count,
              reference.cases.cases[c].case_count)
        << c;
    EXPECT_EQ(packed.construction.outcomes[c].verdict,
              reference.construction.outcomes[c].verdict)
        << c;
  }
  EXPECT_EQ(packed.extracted(), reference.extracted());
  EXPECT_EQ(packed.expression(), reference.expression());
  EXPECT_EQ(packed.fitness(), reference.fitness());
  EXPECT_EQ(packed.construction.unobserved, reference.construction.unobserved);
  EXPECT_EQ(packed.construction.unstable, reference.construction.unstable);
}

TEST(LogicAnalyzer, TracePathMatchesTheReferenceStages) {
  // A noisy 2-input trace with glitches: sweep 4 combinations, output
  // follows AND with a transient at each phase boundary.
  sim::Rng rng(99);
  sim::Trace trace({"A", "B", "Y"});
  for (int k = 0; k < 2000; ++k) {
    const int combo = (k / 500) % 4;
    const bool a = (combo & 2) != 0;
    const bool b = (combo & 1) != 0;
    const bool high = a && b;
    const double noise = rng.normal() * 6.0;
    trace.append(k, {a ? 20.0 : 0.0, b ? 20.0 : 0.0,
                     (high ? 40.0 : 2.0) + noise});
  }
  const LogicAnalyzer analyzer(AnalyzerConfig{15.0, 0.25});
  expect_same_extraction(
      analyzer.analyze(trace, {"A", "B"}, "Y"),
      analyzer.analyze_digital(digitize(trace, {"A", "B"}, "Y", 15.0),
                               {"A", "B"}, "Y"));
}

TEST(LogicAnalyzer, AnalyzePackedMatchesAnalyzeDigital) {
  sim::Rng rng(7);
  DigitalData data;
  data.inputs.assign(2, {});
  for (int k = 0; k < 777; ++k) {
    data.inputs[0].push_back(rng.below(2) == 1);
    data.inputs[1].push_back(rng.below(2) == 1);
    data.output.push_back(rng.below(2) == 1);
  }
  const LogicAnalyzer analyzer;
  const ExtractionResult reference =
      analyzer.analyze_digital(data, {"A", "B"}, "Y");
  expect_same_extraction(analyzer.analyze_packed(pack(data), {"A", "B"}, "Y"),
                         reference);
  // Only the reference stages log the per-combination output streams.
  for (const CaseRecord& record : reference.cases.cases) {
    EXPECT_EQ(record.output_stream.size(), record.case_count);
  }
}

// --------------------------------------------------------------- verifier

ExtractionResult extraction_for(const VariationAnalysis& analysis,
                                double fov_ud) {
  ExtractionResult result;
  result.input_count = analysis.input_count;
  result.input_names = {"A", "B"};
  result.output_name = "Y";
  result.variation = analysis;
  result.construction = construct_bool_expr(analysis, fov_ud, {"A", "B"});
  return result;
}

TEST(Verifier, ReportsWrongStatesWithVerdicts) {
  // Extracted AND; expected XOR -> wrong at 01, 10 (missed) and 11 (extra).
  const auto extraction = extraction_for(stats2(100, 0, 0, 100, 99, 1), 0.25);
  const auto report = verify(extraction, logic::TruthTable::xor_gate(2));
  EXPECT_FALSE(report.matches);
  ASSERT_EQ(report.wrong_states.size(), 3u);
  EXPECT_DOUBLE_EQ(report.error_percent, 75.0);
  // summarize prints the (wrong) extracted value per state: 01 and 10 read
  // low though XOR expects high; 11 read high though XOR expects low.
  const std::string text =
      summarize(report, logic::TruthTable::xor_gate(2));
  EXPECT_NE(text.find("01->0"), std::string::npos);
  EXPECT_NE(text.find("11->1"), std::string::npos);
}

TEST(Verifier, MatchReportsCleanly) {
  const auto extraction = extraction_for(stats2(100, 0, 0, 100, 99, 1), 0.25);
  const auto report = verify(extraction, logic::TruthTable::and_gate(2));
  EXPECT_TRUE(report.matches);
  EXPECT_EQ(summarize(report, logic::TruthTable::and_gate(2)), "MATCH");
  EXPECT_DOUBLE_EQ(report.error_percent, 0.0);
}

TEST(Verifier, InputCountMismatchThrows) {
  const auto extraction = extraction_for(stats2(100, 0, 0, 100, 99, 1), 0.25);
  EXPECT_THROW((void)verify(extraction, logic::TruthTable(3)),
               InvalidArgument);
}

// ----------------------------------------------------------------- report

TEST(Report, AnalyticsTableListsEveryCombination) {
  const auto extraction =
      extraction_for(stats2(1850, 3, 2, 3050, 1875, 7), 0.25);
  const std::string table = render_analytics_table(extraction);
  EXPECT_NE(table.find("00"), std::string::npos);
  EXPECT_NE(table.find("1850"), std::string::npos);
  EXPECT_NE(table.find("HIGH"), std::string::npos);
  const std::string csv = analytics_csv(extraction);
  EXPECT_NE(csv.find("case,case_count"), std::string::npos);
  EXPECT_NE(csv.find("11,3050,1875,7"), std::string::npos);
}

TEST(Report, BarsMarkAcceptedCombinations) {
  const auto extraction =
      extraction_for(stats2(1850, 3, 2, 3050, 1875, 7), 0.25);
  const std::string bars = render_analytics_bars(extraction);
  EXPECT_NE(bars.find("11 *"), std::string::npos);  // accepted-high marker
  EXPECT_NE(bars.find("Case_I"), std::string::npos);
  EXPECT_NE(bars.find("Var_O"), std::string::npos);
}

// The re-digitizing threshold sweep shares one simulation across its
// points; each point must extract exactly what a re-analysis of that
// simulation at its threshold produces, in point order, for any job count.
TEST(ThresholdSweepRedigitize, MatchesPerPointReanalysis) {
  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config;
  config.total_time = 400.0;
  config.seed = 9;
  // Thresholds straddling the drive level (inputs applied at 15): {3, 10,
  // 15} digitize the clamped inputs identically, 40 zeroes them.
  const std::vector<double> thresholds = {3.0, 10.0, 15.0, 40.0};

  const auto sweep =
      core::threshold_sweep_redigitize(spec, config, thresholds, 2);
  ASSERT_EQ(sweep.points.size(), thresholds.size());

  // Reference: the shared simulation re-analyzed point by point through
  // the generic analyzer entry (no index sharing).
  const auto base = core::simulate_trace(spec, config);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    core::ExperimentConfig point_config = config;
    point_config.threshold = thresholds[i];
    point_config.input_high_level = config.high_level();
    const auto expected = core::reanalyze(spec, point_config, base);

    const auto& actual = sweep.points[i].result;
    EXPECT_EQ(actual.extraction.expression(),
              expected.extraction.expression())
        << "threshold " << thresholds[i];
    EXPECT_EQ(actual.extraction.fitness(), expected.extraction.fitness());
    EXPECT_EQ(actual.verification.matches, expected.verification.matches);
    ASSERT_EQ(actual.extraction.variation.records.size(),
              expected.extraction.variation.records.size());
    for (std::size_t c = 0;
         c < expected.extraction.variation.records.size(); ++c) {
      const auto& ra = actual.extraction.variation.records[c];
      const auto& re = expected.extraction.variation.records[c];
      EXPECT_EQ(ra.case_count, re.case_count);
      EXPECT_EQ(ra.high_count, re.high_count);
      EXPECT_EQ(ra.variation_count, re.variation_count);
      EXPECT_EQ(ra.fov_est, re.fov_est);
    }
  }

  // And a one-worker sweep commits the same points.
  const auto serial =
      core::threshold_sweep_redigitize(spec, config, thresholds, 1);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_EQ(sweep.points[i].result.extraction.expression(),
              serial.points[i].result.extraction.expression());
    EXPECT_EQ(sweep.points[i].result.extraction.fitness(),
              serial.points[i].result.extraction.fitness());
  }
}

}  // namespace
