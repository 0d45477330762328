// Figure 2 reproduction: "Analysis and verification process. (a) Sample
// plots of 2-input genetic AND gate. (b) Sample data for illustrating the
// input case and variation analysis."
//
// Runs the Figure 1 genetic AND gate (LacI/TetR -> CI -> GFP) through the
// paper's sweep, renders the analog I/O traces as strip charts, prints the
// per-combination Case_I / output-stream / Var_O table, and shows how the
// unfiltered reading would mis-classify the circuit as XNOR (the initial
// GFP transient makes combination 00 look high) while the two filters
// recover AND.
//
// Shape targets: combination 00 carries a short run of logic-1 samples
// (initial transient / glitch), combination 11 is majority-high with a few
// threshold oscillations before settling, and the any-high baseline reads
// XNOR-ish while the filtered extractor reads AND.

#include <chrono>
#include <fstream>
#include <iostream>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/baseline.h"
#include "core/experiment.h"
#include "core/report.h"
#include "logic/quine_mccluskey.h"
#include "util/ascii_chart.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace glva;

  util::CliParser cli;
  cli.add_option("total-time", "10000", "sweep duration (time units)");
  cli.add_option("threshold", "15", "ThVAL (molecules)");
  cli.add_option("fov-ud", "0.25", "FOV_UD");
  cli.add_option("seed", "1", "simulation seed");
  cli.add_option("csv", "", "optional path for the trace CSV");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("fig2_and_gate");
    return 0;
  }

  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config;
  config.total_time = cli.get_double("total-time");
  config.threshold = cli.get_double("threshold");
  config.fov_ud = cli.get_double("fov-ud");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // This figure displays the per-combination output streams run-length
  // encoded; only the reference backend materializes them (the packed
  // backend keeps them implicit in mask/output word pairs).
  config.backend = core::AnalysisBackend::kReference;

  // The figure draws the analog trace, so it takes the trace path.
  const auto simulate_start = std::chrono::steady_clock::now();
  const sim::SweepResult sweep = core::simulate_trace(spec, config);
  const double simulate_seconds = util::seconds_since(simulate_start);
  core::ExperimentResult result = core::reanalyze(spec, config, sweep);
  result.simulate_seconds = simulate_seconds;
  const sim::Trace& trace = sweep.trace;

  std::cout << "=== Figure 2(a): sample plots of the 2-input genetic AND gate "
               "===\n\n";
  util::ChartOptions chart;
  chart.threshold = config.threshold;
  chart.height = 10;
  for (const std::string id : {"LacI", "TetR", "GFP"}) {
    std::cout << util::render_time_series(id + " (molecules)", trace.times(),
                                          trace.series(id), chart)
              << "\n";
  }

  std::cout << "=== Figure 2(b): input case and variation analysis ===\n\n";
  std::cout << core::render_analytics_table(result.extraction) << "\n";

  std::cout << "per-combination output data streams (run-length encoded):\n";
  for (const auto& record : result.extraction.cases.cases) {
    std::cout << "  case "
              << result.extraction.extracted().combination_label(
                     record.combination)
              << ": " << util::render_run_length(record.output_stream) << "\n";
  }

  // The paper's XNOR warning: what an unfiltered reading concludes.
  const auto names = spec.input_ids;
  const auto show_rule = [&](core::BaselineRule rule) {
    const logic::TruthTable table = core::extract_with_rule(
        result.extraction.variation, rule, config.fov_ud);
    std::cout << "  " << core::baseline_rule_name(rule) << ": GFP = "
              << logic::minimize(table, names).to_string() << "\n";
  };
  std::cout << "\n=== filter ablation on the same data ===\n";
  show_rule(core::BaselineRule::kAnyHigh);
  show_rule(core::BaselineRule::kStabilityOnly);
  show_rule(core::BaselineRule::kMajorityOnly);
  show_rule(core::BaselineRule::kBothFilters);

  std::cout << "\n" << core::render_experiment_summary(result, spec.expected);

  if (const std::string path = cli.get("csv"); !path.empty()) {
    std::ofstream(path) << trace.to_csv();
    std::cout << "trace CSV written to " << path << "\n";
  }
  return result.verification.matches ? 0 : 1;
}
