#include "core/logic_analyzer.h"

#include "util/errors.h"

namespace glva::core {

LogicAnalyzer::LogicAnalyzer(AnalyzerConfig config) : config_(config) {
  if (!(config_.threshold > 0.0)) {
    throw InvalidArgument("LogicAnalyzer: threshold must be positive");
  }
  if (!(config_.fov_ud > 0.0 && config_.fov_ud <= 1.0)) {
    throw InvalidArgument("LogicAnalyzer: FOV_UD must be in (0, 1]");
  }
}

ExtractionResult LogicAnalyzer::analyze(
    const sim::Trace& trace, const std::vector<std::string>& input_ids,
    const std::string& output_id) const {
  // Line 4 of Algorithm 1: digitize straight into bit-packed planes.
  return analyze_packed(
      digitize_packed(trace, input_ids, output_id, config_.threshold),
      input_ids, output_id);
}

ExtractionResult LogicAnalyzer::analyze_packed(
    const PackedDigitalData& data, std::vector<std::string> input_names,
    std::string output_name) const {
  ExtractionResult result;
  result.input_count = data.input_count();
  result.input_names = input_names;
  result.output_name = std::move(output_name);
  result.config = config_;

  // Lines 5 and 6: Case_I, HIGH_O and O_Var along the input runs.
  result.variation = analyze_runs(data);
  result.cases.input_count = result.input_count;
  result.cases.cases.resize(result.variation.records.size());
  for (std::size_t c = 0; c < result.cases.cases.size(); ++c) {
    result.cases.cases[c].combination = c;
    result.cases.cases[c].case_count = result.variation.records[c].case_count;
  }
  // Line 7: ConstBoolExpr (filters, expression, PFoBE).
  result.construction = construct_bool_expr(result.variation, config_.fov_ud,
                                            std::move(input_names));
  return result;
}

ExtractionResult LogicAnalyzer::analyze_digital(
    const DigitalData& data, std::vector<std::string> input_names,
    std::string output_name) const {
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

}  // namespace glva::core
