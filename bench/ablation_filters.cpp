// Design-choice ablations beyond the paper's figures:
//
//  (a) filter ablation across the full 15-circuit set — how often each
//      baseline rule (any-high / majority-only / stability-only) extracts
//      the wrong function vs the paper's two-filter rule;
//  (b) FOV_UD sensitivity — sweep the user-defined acceptable variation
//      and report where extraction flips (the paper fixes 0.25);
//  (c) hold-time sensitivity — shrink the per-combination hold time below
//      the propagation delay and watch wrong states appear (the paper's
//      Section II warning).

#include <iostream>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/baseline.h"
#include "core/experiment.h"
#include "logic/quine_mccluskey.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace {

using namespace glva;

void filter_ablation(const core::ExperimentConfig& config) {
  std::cout << "=== (a) extraction rule ablation, all 15 circuits ===\n\n";
  const auto rules = {
      core::BaselineRule::kAnyHigh, core::BaselineRule::kStabilityOnly,
      core::BaselineRule::kMajorityOnly, core::BaselineRule::kBothFilters};

  util::TextTable table(
      {"rule", "correct", "wrong", "example failure (circuit: extracted)"});
  for (const auto rule : rules) {
    std::size_t correct = 0;
    std::string example;
    for (const auto& spec : circuits::CircuitRepository::build_all()) {
      const core::ExperimentResult result = core::run_experiment(spec, config);
      const logic::TruthTable extracted = core::extract_with_rule(
          result.extraction.variation, rule, config.fov_ud);
      if (extracted == spec.expected) {
        ++correct;
      } else if (example.empty()) {
        example = spec.name + ": " +
                  logic::minimize(extracted, spec.input_ids).to_string();
      }
    }
    table.add_row({core::baseline_rule_name(rule), std::to_string(correct),
                   std::to_string(15 - correct), example});
  }
  std::cout << table.str() << "\n";
}

void fov_sweep(const core::ExperimentConfig& base) {
  std::cout << "=== (b) FOV_UD sensitivity on circuit 0x0B ===\n\n";
  const auto spec = circuits::CircuitRepository::build("0x0B");

  // One simulation; re-filter under different FOV_UD values.
  const sim::SweepResult reference = core::simulate_trace(spec, base);
  util::TextTable table({"FOV_UD", "expression", "verify"});
  table.set_align(0, util::TextTable::Align::kRight);
  for (const double fov : {0.001, 0.005, 0.02, 0.1, 0.25, 0.5, 1.0}) {
    core::ExperimentConfig config = base;
    config.fov_ud = fov;
    const core::ExperimentResult result =
        core::reanalyze(spec, config, reference);
    table.add_row({util::format_double(fov, 4),
                   result.extraction.expression(),
                   core::summarize(result.verification, spec.expected)});
  }
  std::cout << table.str() << "\n";
}

void sampling_sweep(const core::ExperimentConfig& base) {
  std::cout << "=== (d) sampling-period and trace-length sensitivity (0x0B) "
               "===\n"
            << "(the analyzer sees fewer samples as the period grows; PFoBE "
               "and correctness\n should be stable until combinations are "
               "too thinly sampled)\n\n";
  const auto spec = circuits::CircuitRepository::build("0x0B");
  util::TextTable table({"sampling period", "samples", "expression",
                         "PFoBE %", "verify"});
  table.set_align(0, util::TextTable::Align::kRight);
  table.set_align(1, util::TextTable::Align::kRight);
  table.set_align(3, util::TextTable::Align::kRight);
  for (const double period : {0.5, 1.0, 5.0, 20.0, 50.0, 100.0}) {
    core::ExperimentConfig config = base;
    config.sampling_period = period;
    const auto result = core::run_experiment(spec, config);
    std::size_t samples = 0;
    for (const auto& record : result.extraction.variation.records) {
      samples += record.case_count;
    }
    table.add_row({util::format_double(period, 4), std::to_string(samples),
                   result.extraction.expression(),
                   util::format_double(result.extraction.fitness(), 5),
                   core::summarize(result.verification, spec.expected)});
  }
  std::cout << table.str() << "\n";
}

void hold_time_sweep(const core::ExperimentConfig& base) {
  std::cout << "=== (c) hold-time sensitivity on circuit 0x17 (deepest) ===\n"
            << "(per-combination hold = total_time / 8; the paper warns that "
               "combinations\n changed before the propagation delay elapses "
               "give wrong output states)\n\n";
  const auto spec = circuits::CircuitRepository::build("0x17");
  util::TextTable table({"hold (tu)", "expression", "verify"});
  table.set_align(0, util::TextTable::Align::kRight);
  for (const double total : {800.0, 1600.0, 3200.0, 6400.0, 10000.0, 20000.0}) {
    core::ExperimentConfig config = base;
    config.total_time = total;
    const core::ExperimentResult result = core::run_experiment(spec, config);
    table.add_row({util::format_double(total / 8.0, 5),
                   result.extraction.expression(),
                   core::summarize(result.verification, spec.expected)});
  }
  std::cout << table.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("total-time", "10000", "sweep duration (time units)");
  cli.add_option("threshold", "15", "ThVAL (molecules)");
  cli.add_option("fov-ud", "0.25", "FOV_UD");
  cli.add_option("seed", "1", "simulation seed");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("ablation_filters");
    return 0;
  }

  core::ExperimentConfig config;
  config.total_time = cli.get_double("total-time");
  config.threshold = cli.get_double("threshold");
  config.fov_ud = cli.get_double("fov-ud");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  filter_ablation(config);
  fov_sweep(config);
  hold_time_sweep(config);
  sampling_sweep(config);
  return 0;
}
