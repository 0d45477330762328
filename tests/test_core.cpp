// Unit tests for glva_core: ADC, CaseAnalyzer, VariationAnalyzer, the two
// filters, PFoBE, verification, baselines, and reports — including the
// paper's own worked numbers from Figures 2 and 4.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/adc.h"
#include "core/baseline.h"
#include "core/bool_constructor.h"
#include "core/case_analyzer.h"
#include "core/experiment.h"
#include "core/logic_analyzer.h"
#include "core/report.h"
#include "core/threshold_sweep.h"
#include "core/variation_analyzer.h"
#include "core/verifier.h"
#include "sim/rng.h"
#include "sim/trace.h"
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
