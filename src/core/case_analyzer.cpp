#include "core/case_analyzer.h"

#include "util/errors.h"

namespace glva::core {

CaseAnalysis analyze_cases(const DigitalData& data) {
  const std::size_t n = data.input_count();
  if (n == 0) {
    throw InvalidArgument("analyze_cases: no input streams");
  }
  if (n > 16) {
    throw InvalidArgument("analyze_cases: more than 16 inputs");
  }
  const std::size_t samples = data.sample_count();
  for (const auto& input : data.inputs) {
    if (input.size() != samples) {
      throw InvalidArgument(
          "analyze_cases: input/output stream lengths differ");
    }
  }

  CaseAnalysis analysis;
  analysis.input_count = n;
  analysis.cases.resize(static_cast<std::size_t>(1) << n);
  for (std::size_t c = 0; c < analysis.cases.size(); ++c) {
    analysis.cases[c].combination = c;
  }

  for (std::size_t k = 0; k < samples; ++k) {
    std::size_t combination = 0;
    for (std::size_t i = 0; i < n; ++i) {
      combination = (combination << 1) | (data.inputs[i][k] ? 1U : 0U);
    }
    CaseRecord& record = analysis.cases[combination];
    ++record.case_count;
    record.output_stream.push_back(data.output[k]);
  }
  return analysis;
}

}  // namespace glva::core
