#include "core/logic_analyzer.h"

#include "util/errors.h"

namespace glva::core {

const char* analysis_backend_name(AnalysisBackend backend) {
  return backend == AnalysisBackend::kPacked ? "packed" : "reference";
}

AnalysisBackend parse_analysis_backend(const std::string& name) {
  if (name == "packed") return AnalysisBackend::kPacked;
  if (name == "reference") return AnalysisBackend::kReference;
  throw InvalidArgument("unknown analysis backend '" + name +
                        "' (expected packed | reference)");
}

LogicAnalyzer::LogicAnalyzer(AnalyzerConfig config) : config_(config) {
  if (config_.threshold <= 0.0) {
    throw InvalidArgument("LogicAnalyzer: threshold must be positive");
  }
  if (config_.fov_ud <= 0.0 || config_.fov_ud > 1.0) {
    throw InvalidArgument("LogicAnalyzer: FOV_UD must be in (0, 1]");
  }
}

ExtractionResult LogicAnalyzer::analyze(
    const sim::Trace& trace, const std::vector<std::string>& input_ids,
    const std::string& output_id) const {
  if (packed_applies(config_.backend, input_ids.size())) {
    // Line 4 of Algorithm 1 on the packed path: digitize straight into
    // bit-packed streams, no vector<bool> intermediate.
    return analyze_packed(
        digitize_packed(trace, input_ids, output_id, config_.threshold),
        input_ids, output_id);
  }
  // Line 4 of Algorithm 1: analog-to-digital conversion of the chosen I/O
  // species (reference representation).
  DigitalData data = digitize(trace, input_ids, output_id, config_.threshold);
  return analyze_digital(std::move(data), input_ids, output_id);
}

ExtractionResult LogicAnalyzer::analyze_digital(
    const DigitalData& data, std::vector<std::string> input_names,
    std::string output_name) const {
  if (packed_applies(config_.backend, data.input_count())) {
    return analyze_packed(pack(data), std::move(input_names),
                          std::move(output_name));
  }

  ExtractionResult result;
  result.input_count = data.input_count();
  result.input_names = input_names;
  result.output_name = std::move(output_name);
  result.config = config_;

  // Line 5: CaseAnalyzer.
  result.cases = analyze_cases(data);
  // Line 6: VariationAnalyzer.
  result.variation = analyze_variation(result.cases);
  // Line 7: ConstBoolExpr (filters, expression, PFoBE).
  result.construction = construct_bool_expr(result.variation, config_.fov_ud,
                                            std::move(input_names));
  return result;
}

ExtractionResult LogicAnalyzer::analyze_packed(
    const PackedDigitalData& data, std::vector<std::string> input_names,
    std::string output_name) const {
  ExtractionResult result;
  result.input_count = data.input_count();
  result.input_names = input_names;
  result.output_name = std::move(output_name);
  result.config = config_;

  // Line 5: CaseAnalyzer — word-parallel combination masks.
  const PackedCaseAnalysis cases = analyze_cases_packed(data);
  result.cases = case_counts(cases);
  // Line 6: VariationAnalyzer — popcount HIGH_O / O_Var.
  result.variation = analyze_variation_packed(cases);
  // Line 7: ConstBoolExpr — representation-independent, shared verbatim.
  result.construction = construct_bool_expr(result.variation, config_.fov_ud,
                                            std::move(input_names));
  return result;
}

ExtractionResult LogicAnalyzer::analyze_packed_shared(
    const logic::CombinationIndex& index, const logic::BitStream& output,
    std::vector<std::string> input_names, std::string output_name) const {
  if (input_names.size() != index.input_count()) {
    throw InvalidArgument(
        "analyze_packed_shared: need one name per indexed input");
  }
  if (output.size() != index.sample_count()) {
    throw InvalidArgument(
        "analyze_packed_shared: output length does not match the index");
  }
  ExtractionResult result;
  result.input_count = index.input_count();
  result.input_names = input_names;
  result.output_name = std::move(output_name);
  result.config = config_;

  // Line 5's index is borrowed; lines 5b-7 are the packed stages verbatim.
  result.cases = case_counts(index);
  result.variation = analyze_variation_packed(index, output);
  result.construction = construct_bool_expr(result.variation, config_.fov_ud,
                                            std::move(input_names));
  return result;
}

}  // namespace glva::core
