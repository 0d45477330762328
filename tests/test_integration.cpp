// Integration tests: the full pipeline (circuit -> SSA sweep -> Algorithm 1
// -> verification) on the paper's 15-circuit benchmark, plus cross-cutting
// end-to-end properties (SBML round trips, simulator equivalence, threshold
// degradation, the Figure 2 XNOR trap).

#include <gtest/gtest.h>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/baseline.h"
#include "core/experiment.h"
#include "core/threshold_sweep.h"
#include "logic/quine_mccluskey.h"
#include "sbml/reader.h"
#include "sbml/writer.h"

namespace {

using namespace glva;
using circuits::CircuitRepository;

// ------------------------- every circuit recovers its intended function --

class AllCircuits : public ::testing::TestWithParam<std::string> {};

TEST_P(AllCircuits, RecoversIntendedLogicAtNominalParameters) {
  const auto spec = CircuitRepository::build(GetParam());
  core::ExperimentConfig config;  // the paper's defaults
  const auto result = core::run_experiment(spec, config);
  EXPECT_TRUE(result.verification.matches)
      << spec.name << " extracted " << result.extraction.expression() << " — "
      << core::summarize(result.verification, spec.expected);
  EXPECT_GE(result.extraction.fitness(), 95.0) << spec.name;
}

TEST_P(AllCircuits, SweepCoversEveryCombinationEvenly) {
  const auto spec = CircuitRepository::build(GetParam());
  core::ExperimentConfig config;
  config.total_time = 4000.0;
  const auto result = core::run_experiment(spec, config);
  const std::size_t combos = spec.expected.row_count();
  for (const auto& record : result.extraction.cases.cases) {
    // Equal split of the sweep: total samples / 2^N, within one sample.
    EXPECT_NEAR(static_cast<double>(record.case_count),
                4000.0 / static_cast<double>(combos), 2.0)
        << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FifteenCircuitStudy, AllCircuits,
    ::testing::ValuesIn(CircuitRepository::names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ----------------------------------------------- seed robustness sampling --

class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, HeadlineCircuitsMatchAcrossSeeds) {
  core::ExperimentConfig config;
  config.seed = GetParam();
  for (const char* name : {"myers_and", "0x0B", "0x17"}) {
    const auto spec = CircuitRepository::build(name);
    const auto result = core::run_experiment(spec, config);
    EXPECT_TRUE(result.verification.matches)
        << name << " seed " << GetParam() << ": "
        << result.extraction.expression();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ------------------------------------------------------- cross-simulator --

TEST(Integration, ExactSimulatorsAgreeOnExtractedLogic) {
  for (const char* name : {"myers_and", "0x1C", "0x8"}) {
    const auto spec = CircuitRepository::build(name);
    core::ExperimentConfig config;
    config.method = sim::SsaMethod::kDirect;
    const auto direct = core::run_experiment(spec, config);
    config.method = sim::SsaMethod::kNextReaction;
    const auto nrm = core::run_experiment(spec, config);
    EXPECT_EQ(direct.extraction.extracted(), nrm.extraction.extracted())
        << name;
    EXPECT_TRUE(nrm.verification.matches) << name;
  }
}

TEST(Integration, TauLeapingRecoversLogicOnSimpleCircuits) {
  const auto spec = CircuitRepository::build("myers_nor");
  core::ExperimentConfig config;
  config.method = sim::SsaMethod::kTauLeap;
  const auto result = core::run_experiment(spec, config);
  EXPECT_TRUE(result.verification.matches)
      << result.extraction.expression();
}

// ------------------------------------------------------- two-stage models --

TEST(Integration, TwoStageExpansionPreservesLogic) {
  for (const char* name : {"0x1", "0x1C"}) {
    const auto spec = CircuitRepository::build(name, /*two_stage=*/true);
    core::ExperimentConfig config;
    const auto result = core::run_experiment(spec, config);
    EXPECT_TRUE(result.verification.matches)
        << name << " (two-stage) extracted "
        << result.extraction.expression();
  }
}

// ------------------------------------------------------------ SBML round --

TEST(Integration, SbmlRoundTripIsBitIdentical) {
  for (const char* name : {"myers_and", "0x0B"}) {
    const auto spec = CircuitRepository::build(name);
    circuits::CircuitSpec reloaded_spec = spec;
    reloaded_spec.model = sbml::read_sbml(sbml::write_sbml(spec.model));

    core::ExperimentConfig config;
    const auto original = core::run_experiment(spec, config);
    const auto reloaded = core::run_experiment(reloaded_spec, config);
    // Same seed + value-identical model => identical traces and analysis.
    EXPECT_EQ(original.extraction.extracted(), reloaded.extraction.extracted())
        << name;
    EXPECT_DOUBLE_EQ(original.extraction.fitness(),
                     reloaded.extraction.fitness())
        << name;
  }
}

// -------------------------------------------------- threshold degradation --

TEST(Integration, Figure5ThresholdShape) {
  const auto spec = CircuitRepository::build("0x0B");
  core::ExperimentConfig config;
  const auto sweep = core::threshold_sweep(spec, config, {3.0, 15.0, 40.0});
  ASSERT_EQ(sweep.points.size(), 3u);

  // ThVAL = 3: inputs too weak to trigger the output -> wrong states.
  EXPECT_FALSE(sweep.points[0].result.verification.matches);
  // ThVAL = 15: intended function.
  EXPECT_TRUE(sweep.points[1].result.verification.matches);
  // ThVAL = 40: output level indistinguishable from threshold -> wrong
  // states again, with far larger output variation.
  EXPECT_FALSE(sweep.points[2].result.verification.matches);

  const auto total_variation = [](const core::ExperimentResult& result) {
    std::size_t total = 0;
    for (const auto& record : result.extraction.variation.records) {
      total += record.variation_count;
    }
    return total;
  };
  EXPECT_GT(total_variation(sweep.points[2].result),
            5 * total_variation(sweep.points[1].result));
}

TEST(Integration, RedigitizeAblationIsolatesAdcEffect) {
  const auto spec = CircuitRepository::build("0x0B");
  core::ExperimentConfig config;
  const auto sweep =
      core::threshold_sweep_redigitize(spec, config, {15.0, 40.0});
  // With the drive held at 15 molecules, re-digitizing at 40 still loses
  // states (the plateau sits near 44) — the ADC effect alone.
  EXPECT_TRUE(sweep.points[0].result.verification.matches);
  EXPECT_FALSE(sweep.points[1].result.verification.matches);
}

// -------------------------------------------------------- Figure 2 story --

TEST(Integration, UnfilteredReadingOfAndGateIsXnor) {
  const auto spec = CircuitRepository::build("myers_and");
  core::ExperimentConfig config;  // seed 1 shows the initial transient
  const auto result = core::run_experiment(spec, config);

  const auto naive = core::extract_with_rule(
      result.extraction.variation, core::BaselineRule::kAnyHigh,
      config.fov_ud);
  // The initial GFP transient makes combination 00 look high at least once
  // -> the naive rule reads XNOR; the paper's filters read AND.
  EXPECT_TRUE(naive.output(0));
  EXPECT_TRUE(naive.output(3));
  EXPECT_EQ(result.extraction.extracted(),
            logic::TruthTable::and_gate(2));
}

TEST(Integration, DecayTailAtCombination100IsFilteredByEq2) {
  // The paper's 0x0B narrative: 011 is high; switching to 100 leaves a
  // decaying tail of logic-1 output that equation (2) must reject.
  const auto spec = CircuitRepository::build("0x0B");
  core::ExperimentConfig config;
  config.seed = 2;  // the canonical figure seed
  const auto result = core::run_experiment(spec, config);
  const auto& record_100 = result.extraction.variation.records[0b100];
  EXPECT_GT(record_100.high_count, 0u);  // the tail exists...
  EXPECT_LT(record_100.high_count, record_100.case_count / 2);  // ...but loses
  EXPECT_EQ(result.extraction.construction.outcomes[0b100].verdict,
            core::CaseVerdict::kLow);
}

// --------------------------------------------------- intermediate signals --

TEST(Integration, IntermediateComponentAnalysisRecoversStageLogic) {
  const auto spec = CircuitRepository::build("0x8");  // AND = NOR(NOT,NOT)
  core::ExperimentConfig config;
  const auto sweep = core::simulate_trace(spec, config);

  const core::LogicAnalyzer analyzer(
      core::AnalyzerConfig{config.threshold, config.fov_ud});
  // SrpR = NOT(A), QacR = NOT(B).
  const auto srp = analyzer.analyze(sweep.trace, spec.input_ids, "SrpR");
  EXPECT_EQ(srp.extracted(),
            logic::TruthTable::from_minterms(2, {0, 1}));  // A'
  const auto qac = analyzer.analyze(sweep.trace, spec.input_ids, "QacR");
  EXPECT_EQ(qac.extracted(),
            logic::TruthTable::from_minterms(2, {0, 2}));  // B'
}

// ------------------------------------------------------------ hold time --

TEST(Integration, TooShortHoldTimeBreaksDeepCircuits) {
  // Section II: "if ... each of the input combination is changed before the
  // propagation delay has elapsed, then the circuit never produces a
  // correct output for some of the input combinations."
  const auto spec = CircuitRepository::build("0x17");
  core::ExperimentConfig config;
  config.total_time = 400.0;  // 50 tu per combination << propagation delay
  const auto result = core::run_experiment(spec, config);
  EXPECT_FALSE(result.verification.matches);
}

}  // namespace
