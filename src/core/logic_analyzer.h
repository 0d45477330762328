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
/// species.
namespace glva::core {

/// Which digitized-stream representation the analysis stage runs on. Both
/// backends produce bit-identical ExtractionResults (variation records,
/// filter outcomes, expression, PFoBE, verification — pinned by the
/// equivalence tests); they differ in speed and in whether
/// `ExtractionResult::cases` materializes per-combination output streams.
enum class AnalysisBackend {
  /// Word-parallel bit-packed streams (logic::BitStream +
  /// logic::CombinationIndex): the production path, O(2^N · samples / 64)
  /// per stage. `cases` carries counts only (empty output_streams).
  kPacked,
  /// One-sample-at-a-time `std::vector<bool>` streams: the reference
  /// implementation the packed path is cross-checked against; also the
  /// only backend that materializes per-combination output streams (the
  /// Figure 2/3 run-length displays need them).
  kReference,
};

/// Backend name ("packed" / "reference") and its inverse; parse throws
/// glva::InvalidArgument for unknown names.
[[nodiscard]] const char* analysis_backend_name(AnalysisBackend backend);
[[nodiscard]] AnalysisBackend parse_analysis_backend(const std::string& name);

/// Largest input count the packed backend is auto-selected for. Packed
/// work and mask memory grow as 2^N (2^N masks, O(2^N · N · samples / 64)
/// ops) while the reference path grows as N · samples, so past ~6 inputs
/// the reference is the better default; requests beyond this limit
/// silently use the (bit-identical) reference path. Explicit
/// analyze_packed callers may go up to logic::CombinationIndex::kMaxInputs.
inline constexpr std::size_t kPackedAutoInputLimit = 6;

/// Whether `backend` runs the packed stages on `input_count` inputs:
/// kPacked up to kPackedAutoInputLimit. Beyond it, or under kReference,
/// the (bit-identical) reference stages run instead.
[[nodiscard]] constexpr bool packed_applies(AnalysisBackend backend,
                                            std::size_t input_count) noexcept {
  return backend == AnalysisBackend::kPacked &&
         input_count <= kPackedAutoInputLimit;
}

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
  /// Stream representation the stages run on. Defaults to the packed path;
  /// inputs beyond kPackedAutoInputLimit silently fall back to the
  /// (bit-identical) reference path, which handles up to 16.
  AnalysisBackend backend = AnalysisBackend::kPacked;
};

/// Everything the analysis produces, per combination and aggregated.
struct ExtractionResult {
  std::size_t input_count = 0;
  std::vector<std::string> input_names;
  std::string output_name;
  AnalyzerConfig config;

  CaseAnalysis cases;             ///< Case_I + logged output streams
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
  /// config.fov_ud is in (0, 1].
  explicit LogicAnalyzer(AnalyzerConfig config = {});

  /// Analyze a simulation trace, choosing `input_ids` (MSB first) as IS and
  /// `output_id` as OS. Selecting an internal species as OS analyzes an
  /// intermediate circuit component, exactly as the paper describes.
  ///
  /// Throws glva::InvalidArgument for species ids not present in the trace,
  /// an empty `input_ids`, or more than 16 inputs.
  [[nodiscard]] ExtractionResult analyze(const sim::Trace& trace,
                                         const std::vector<std::string>& input_ids,
                                         const std::string& output_id) const;

  /// Analyze pre-digitized streams (used by unit tests and the Figure 3
  /// reproduction, which starts from constructed binary streams). Under
  /// the packed backend the streams are packed first, so both entry points
  /// agree with `analyze` bit for bit.
  ///
  /// Requires one name per input stream; throws glva::InvalidArgument when
  /// streams have mismatched lengths, there are no inputs, or there are
  /// more than 16 of them.
  [[nodiscard]] ExtractionResult analyze_digital(
      const DigitalData& data, std::vector<std::string> input_names,
      std::string output_name) const;

  /// Analyze pre-packed streams directly (no conversion; the fast path the
  /// packed `analyze` uses internally, exposed for benches and tests).
  /// Same validation as analyze_digital; note the backend switch does not
  /// apply here — this entry point is always packed.
  [[nodiscard]] ExtractionResult analyze_packed(
      const PackedDigitalData& data, std::vector<std::string> input_names,
      std::string output_name) const;

  /// Packed analysis over a caller-provided combination index — the
  /// index-reuse path of `threshold_sweep_redigitize`: when several
  /// threshold points digitize the (clamped) input streams identically,
  /// they share one index and only the output stream is re-digitized per
  /// point. `index` must have been built from this analysis's digitized
  /// inputs; results are then bit-identical to `analyze_packed` on the
  /// matching PackedDigitalData. Always packed (no backend switch).
  ///
  /// Throws glva::InvalidArgument when input_names.size() !=
  /// index.input_count() or output.size() != index.sample_count().
  [[nodiscard]] ExtractionResult analyze_packed_shared(
      const logic::CombinationIndex& index, const logic::BitStream& output,
      std::vector<std::string> input_names, std::string output_name) const;

  [[nodiscard]] const AnalyzerConfig& config() const noexcept { return config_; }

private:
  AnalyzerConfig config_;
};

}  // namespace glva::core
