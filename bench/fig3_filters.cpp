// Figure 3 reproduction: "An example showing how both filters are useful,
// when applied together, in obtaining the correct Boolean expression."
//
// The paper constructs two output binary data streams with the *same*
// number of 1s for two input cases (00 and 11), where one stream is stable
// (a solid run of 1s) and the other oscillates rapidly. Equation (2) alone
// cannot tell them apart; equation (1) rejects the oscillatory one
// (here FOV_UD <= 0.5 discards it, exactly as the paper notes).
//
// This harness builds those streams, runs the analyzer's digital path on
// them, and prints the filter decisions for every rule combination.

#include <iostream>
#include <vector>

#include "core/adc.h"
#include "core/baseline.h"
#include "core/logic_analyzer.h"
#include "core/report.h"
#include "logic/quine_mccluskey.h"
#include "util/ascii_chart.h"
#include "util/cli.h"

namespace {

/// Interleave per-case digital streams into a single two-input recording:
/// case 00 for the first half, case 11 for the second half.
glva::core::DigitalData make_figure3_data(const std::vector<bool>& stream_00,
                                          const std::vector<bool>& stream_11) {
  glva::core::DigitalData data;
  const std::size_t half0 = stream_00.size();
  const std::size_t half1 = stream_11.size();
  data.inputs.assign(2, {});
  for (std::size_t k = 0; k < half0; ++k) {
    data.inputs[0].push_back(false);
    data.inputs[1].push_back(false);
    data.output.push_back(stream_00[k]);
  }
  for (std::size_t k = 0; k < half1; ++k) {
    data.inputs[0].push_back(true);
    data.inputs[1].push_back(true);
    data.output.push_back(stream_11[k]);
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glva;

  util::CliParser cli;
  cli.add_option("length", "1000", "samples per input case");
  cli.add_option("ones", "600", "number of logic-1 samples in each stream");
  cli.add_option("fov-ud", "0.5", "FOV_UD (paper: discards if FOV_UD <= 0.5)");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("fig3_filters");
    return 0;
  }
  const auto length = static_cast<std::size_t>(cli.get_int("length"));
  const auto ones = static_cast<std::size_t>(cli.get_int("ones"));
  const double fov_ud = cli.get_double("fov-ud");
  if (ones > length) {
    std::cerr << "--ones must not exceed --length\n";
    return 2;
  }

  // Case 00: the same number of 1s, in one solid stable run.
  std::vector<bool> stable(length, false);
  for (std::size_t k = 0; k < ones; ++k) stable[length - ones + k] = true;
  // Case 11: alternate as long as possible, then finish with a solid run so
  // the stream carries exactly `ones` 1s — maximally oscillatory at equal
  // HIGH_O.
  std::vector<bool> oscillatory(length, false);
  std::size_t ones_left = ones;
  for (std::size_t k = 0; k < length; ++k) {
    const std::size_t remaining = length - k;
    if (ones_left == remaining || (k % 2 == 0 && ones_left > 0)) {
      oscillatory[k] = true;
      --ones_left;
    }
  }

  const core::DigitalData data = make_figure3_data(stable, oscillatory);
  // analyze_digital runs the reference stages, which log the per-case
  // output streams this figure renders run-length encoded.
  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{15.0, fov_ud});
  const core::ExtractionResult result =
      analyzer.analyze_digital(data, {"A", "B"}, "OUT");

  std::cout << "=== Figure 3: equal HIGH_O counts, different stability ===\n\n";
  std::cout << "case 00 stream: "
            << util::render_run_length(result.cases.cases[0].output_stream)
            << "\ncase 11 stream: "
            << util::render_run_length(result.cases.cases[3].output_stream)
            << "\n\n";
  std::cout << core::render_analytics_table(result) << "\n";

  const auto names = std::vector<std::string>{"A", "B"};
  for (const auto rule :
       {core::BaselineRule::kMajorityOnly, core::BaselineRule::kStabilityOnly,
        core::BaselineRule::kBothFilters}) {
    const logic::TruthTable table =
        core::extract_with_rule(result.variation, rule, fov_ud);
    std::cout << core::baseline_rule_name(rule)
              << ": OUT = " << logic::minimize(table, names).to_string()
              << "\n";
  }

  // Shape check: the oscillatory case must be rejected, the stable one
  // kept (it is majority-high at exactly 50%+... only when ones > length/2;
  // with ones == length/2 both fail eq(2) — the paper's point is about
  // eq(1), so report the verdicts either way).
  const auto& outcome_00 = result.construction.outcomes[0];
  const auto& outcome_11 = result.construction.outcomes[3];
  std::cout << "\ncase 00: eq(1) " << (outcome_00.filter1_pass ? "pass" : "FAIL")
            << ", case 11: eq(1) " << (outcome_11.filter1_pass ? "pass" : "FAIL")
            << " (FOV_EST "
            << result.variation.records[3].fov_est << " vs FOV_UD " << fov_ud
            << ")\n";
  return outcome_11.filter1_pass ? 1 : 0;
}
