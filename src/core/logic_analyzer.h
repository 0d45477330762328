#pragma once

#include <string>
#include <vector>

#include "core/adc.h"
#include "core/bool_constructor.h"
#include "core/case_analyzer.h"
#include "core/variation_analyzer.h"
#include "sim/trace.h"

/// Algorithm 1 — the paper's logic analysis and verification procedure.
/// Wires the sub-procedures in order: ADC → CaseAnalyzer →
/// VariationAnalyzer → ConstBoolExpr, over user-selected input and output
/// species. Production reduces the first three from the sampler's holds
/// (core::RecordSink) and hands the counts to analyze_records; the
/// packed planes (analyze_packed) serve the trace path, and the
/// `vector<bool>` stages stay as the test oracle.
namespace glva::core {

/// The algorithm's initial parameters (the paper's N, ThVAL, FOV_UD, IS,
/// OS; N is implied by IS, and SDAn is the trace argument).
struct AnalyzerConfig {
  /// ThVAL, in molecules: a sample is logic-1 iff its amount >= threshold.
  /// Must be > 0. The paper uses 15 nominally (Figure 5 sweeps 3 and 40).
  double threshold = 15.0;
  /// FOV_UD, the acceptable factor of output variation, as a fraction in
  /// (0, 1]: Filter 1 accepts a combination iff FOV_EST < fov_ud. The
  /// paper allows up to 25% variation (0.25).
  double fov_ud = 0.25;
};

/// Everything the analysis produces, per combination and aggregated.
struct ExtractionResult {
  std::size_t input_count = 0;
  std::vector<std::string> input_names;
  std::string output_name;
  AnalyzerConfig config;

  /// Case_I per combination; the logged output streams only from
  /// analyze_digital.
  CaseAnalysis cases;
  VariationAnalysis variation;    ///< HIGH_O / O_Var / FOV_EST
  BoolConstruction construction;  ///< filters, expression, PFoBE

  /// The extracted logic function (accepted-high combinations).
  [[nodiscard]] const logic::TruthTable& extracted() const noexcept {
    return construction.extracted;
  }
  /// Minimized Boolean expression text ("C·(A' + B)").
  [[nodiscard]] std::string expression() const {
    return construction.minimized.to_string();
  }
  /// PFoBE percentage fitness (equation (3)), in [0, 100]; 100 means every
  /// accepted-high combination was perfectly stable.
  [[nodiscard]] double fitness() const noexcept {
    return construction.fitness_percent;
  }
};

class LogicAnalyzer {
public:
  /// Throws glva::InvalidArgument unless config.threshold > 0 and
  /// config.fov_ud is in (0, 1]; NaN fails both.
  explicit LogicAnalyzer(AnalyzerConfig config = {});

  /// Analyze a simulation trace, choosing `input_ids` (MSB first) as IS and
  /// `output_id` as OS. Selecting an internal species as OS analyzes an
  /// intermediate circuit component, exactly as the paper describes.
  /// Digitizes into packed planes, then runs analyze_packed.
  ///
  /// Throws glva::InvalidArgument for species ids not present in the trace,
  /// an empty `input_ids`, or more than 16 inputs.
  [[nodiscard]] ExtractionResult analyze(const sim::Trace& trace,
                                         const std::vector<std::string>& input_ids,
                                         const std::string& output_id) const;

  /// Line 7 over counts already reduced: `cases` copies each record's
  /// Case_I (with empty output streams), then ConstBoolExpr. The
  /// production entry: core::run_experiment feeds it a core::RecordSink's
  /// counts, and analyze_packed and analyze_digital end in it.
  ///
  /// Throws glva::InvalidArgument unless there is one name per input.
  [[nodiscard]] ExtractionResult analyze_records(
      VariationAnalysis variation, std::vector<std::string> input_names,
      std::string output_name) const;

  /// The trace path's stages on packed planes: Case_I, HIGH_O and O_Var
  /// in one pass along the input runs (core::analyze_runs), then
  /// analyze_records.
  ///
  /// Requires one name per input plane; throws glva::InvalidArgument when
  /// the planes have mismatched lengths, there are no inputs, or there are
  /// more than 16 of them.
  [[nodiscard]] ExtractionResult analyze_packed(
      const PackedDigitalData& data, std::vector<std::string> input_names,
      std::string output_name) const;

  /// The reference stages on `vector<bool>` streams: analyze_cases, then
  /// analyze_variation, then analyze_records. The test oracle of
  /// analyze_packed, bit-identical to it, and the one entry point that
  /// fills `cases.cases[c].output_stream` (the Figure 2 and 3 benches
  /// render those streams). Same validation as analyze_packed.
  [[nodiscard]] ExtractionResult analyze_digital(
      const DigitalData& data, std::vector<std::string> input_names,
      std::string output_name) const;

  [[nodiscard]] const AnalyzerConfig& config() const noexcept { return config_; }

private:
  AnalyzerConfig config_;
};

}  // namespace glva::core
