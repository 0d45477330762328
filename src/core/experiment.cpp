#include "core/experiment.h"

#include <chrono>
#include <utility>

#include "core/acquire.h"
#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace glva::core {

namespace {

/// Algorithm 1's lines 5-7 through `extract`, timed under the "analyze"
/// span, then verification against spec.expected.
template <typename Extract>
ExperimentResult analyzed(const circuits::CircuitSpec& spec,
                          const ExperimentConfig& config, Extract extract) {
  ExperimentResult result;
  result.circuit_name = spec.name;
  result.config = config;

  const LogicAnalyzer analyzer(AnalyzerConfig{config.threshold, config.fov_ud});
  const auto analyze_start = std::chrono::steady_clock::now();
  {
    GLVA_SPAN("analyze");
    result.extraction = extract(analyzer);
  }
  result.analyze_seconds = util::seconds_since(analyze_start);

  result.verification = verify(result.extraction, spec.expected);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& config) {
  Acquisition acquired = acquire_records(spec, config);
  ExperimentResult result =
      analyzed(spec, config, [&](const LogicAnalyzer& analyzer) {
        return analyzer.analyze_records(std::move(acquired.variation),
                                        spec.input_ids, spec.output_id);
      });
  result.schedule = std::move(acquired.schedule);
  result.simulate_seconds = acquired.simulate_seconds;
  return result;
}

void run_batch(const std::vector<circuits::CircuitSpec>& specs,
               const ExperimentConfig& base_config,
               const exec::ParallelRunner& runner,
               const BatchObserver& observer) {
  const exec::SeedSequence seeds(base_config.seed);
  runner.run_reduce<ExperimentResult>(
      specs.size(),
      [&](std::size_t i) {
        ExperimentConfig config = base_config;
        config.seed = seeds.seed_for(i);
        return run_experiment(specs[i], config);
      },
      [&](std::size_t i, ExperimentResult&& result) {
        if (observer) observer(i, std::move(result));
        // `result` dies here: a fleet-sized batch never holds more than
        // the runner's in-flight window of ExperimentResults.
      });
}

std::vector<ExperimentResult> run_batch(
    const std::vector<circuits::CircuitSpec>& specs,
    const ExperimentConfig& base_config, std::size_t jobs) {
  std::vector<ExperimentResult> results;
  results.reserve(specs.size());
  run_batch(specs, base_config, exec::ParallelRunner(jobs),
            [&](std::size_t, ExperimentResult&& result) {
              results.push_back(std::move(result));
            });
  return results;
}

ExperimentResult reanalyze(const circuits::CircuitSpec& spec,
                           const ExperimentConfig& config,
                           const sim::SweepResult& sweep) {
  return analyzed(spec, config, [&](const LogicAnalyzer& analyzer) {
    return analyzer.analyze(sweep.trace, spec.input_ids, spec.output_id);
  });
}

}  // namespace glva::core
