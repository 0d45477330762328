#include "core/variation_analyzer.h"

#include <cstdint>

#include "logic/input_runs.h"
#include "util/errors.h"

namespace glva::core {

VariationAnalysis analyze_variation(const CaseAnalysis& cases) {
  VariationAnalysis analysis;
  analysis.input_count = cases.input_count;
  analysis.records.resize(cases.cases.size());

  for (std::size_t c = 0; c < cases.cases.size(); ++c) {
    const CaseRecord& record = cases.cases[c];
    VariationRecord& out = analysis.records[c];
    out.combination = record.combination;
    out.case_count = record.case_count;

    bool previous = false;
    bool first = true;
    for (const bool bit : record.output_stream) {
      if (bit) ++out.high_count;
      if (!first && bit != previous) ++out.variation_count;
      previous = bit;
      first = false;
    }
    out.fov_est = record.case_count > 0
                      ? static_cast<double>(out.variation_count) /
                            static_cast<double>(record.case_count)
                      : 0.0;
  }
  return analysis;
}

VariationAnalysis analyze_runs(const PackedDigitalData& data) {
  logic::InputRunWalker walker(data.inputs);
  if (data.inputs.front().size() != data.output.size()) {
    throw InvalidArgument("analyze_runs: input/output stream lengths differ");
  }
  VariationAnalysis analysis;
  analysis.input_count = data.input_count();
  analysis.records.resize(std::size_t{1} << analysis.input_count);
  for (std::size_t c = 0; c < analysis.records.size(); ++c) {
    analysis.records[c].combination = c;
  }

  // The output bit each combination's latest run ended on.
  constexpr std::uint8_t kUnseen = 2;
  std::vector<std::uint8_t> last_bit(analysis.records.size(), kUnseen);
  const logic::BitStream& output = data.output;
  logic::InputRun run;
  while (walker.next(run)) {
    const std::size_t end = run.start + run.length;
    VariationRecord& record = analysis.records[run.combination];
    record.case_count += run.length;
    record.high_count += output.popcount(run.start, end);
    record.variation_count += output.transition_count(run.start, end);
    std::uint8_t& last = last_bit[run.combination];
    if (last != kUnseen && output[run.start] != (last == 1)) {
      ++record.variation_count;
    }
    last = output[end - 1] ? 1 : 0;
  }

  for (VariationRecord& record : analysis.records) {
    record.fov_est = record.case_count > 0
                         ? static_cast<double>(record.variation_count) /
                               static_cast<double>(record.case_count)
                         : 0.0;
  }
  return analysis;
}

}  // namespace glva::core
