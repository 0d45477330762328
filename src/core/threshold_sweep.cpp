#include "core/threshold_sweep.h"

#include "core/acquire.h"
#include "exec/parallel_runner.h"

namespace glva::core {

namespace {

/// Collecting observer backing the materializing overloads: the streaming
/// commit order is point order, so push_back reassembles the vector the
/// old map-based implementation produced, bit-identically.
ThresholdPointObserver collect_into(ThresholdSweepResult& sweep,
                                    std::size_t count) {
  sweep.points.reserve(count);
  return [&sweep](std::size_t, ThresholdPoint&& point) {
    sweep.points.push_back(std::move(point));
  };
}

}  // namespace

void threshold_sweep(const circuits::CircuitSpec& spec,
                     const ExperimentConfig& base_config,
                     const std::vector<double>& thresholds,
                     const exec::ParallelRunner& runner,
                     const ThresholdPointObserver& observer) {
  runner.run_reduce<ThresholdPoint>(
      thresholds.size(),
      [&](std::size_t i) {
        // The points share the base seed, so each needs its own archive.
        ExperimentConfig config = job_config(spec, base_config, "-p", i);
        config.threshold = thresholds[i];
        config.input_high_level = -1.0;  // re-apply inputs at the threshold
        return ThresholdPoint{thresholds[i], run_experiment(spec, config)};
      },
      [&](std::size_t i, ThresholdPoint&& point) {
        if (observer) observer(i, std::move(point));
        // `point` is destroyed here: memory stays bounded by the runner's
        // in-flight window, not the grid size.
      });
}

ThresholdSweepResult threshold_sweep(const circuits::CircuitSpec& spec,
                                     const ExperimentConfig& base_config,
                                     const std::vector<double>& thresholds,
                                     std::size_t jobs) {
  ThresholdSweepResult sweep;
  threshold_sweep(spec, base_config, thresholds, exec::ParallelRunner(jobs),
                  collect_into(sweep, thresholds.size()));
  return sweep;
}

void threshold_sweep_redigitize(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& base_config,
                                const std::vector<double>& thresholds,
                                const exec::ParallelRunner& runner,
                                const ThresholdPointObserver& observer) {
  // One simulation at the base input level, kept as an analog trace so
  // every point can re-digitize it.
  const sim::SweepResult base = simulate_trace(spec, base_config);
  runner.run_reduce<ThresholdPoint>(
      thresholds.size(),
      [&](std::size_t i) {
        ExperimentConfig config = base_config;
        config.threshold = thresholds[i];
        config.input_high_level = base_config.high_level();
        return ThresholdPoint{thresholds[i], reanalyze(spec, config, base)};
      },
      [&](std::size_t i, ThresholdPoint&& point) {
        if (observer) observer(i, std::move(point));
      });
}

ThresholdSweepResult threshold_sweep_redigitize(
    const circuits::CircuitSpec& spec, const ExperimentConfig& base_config,
    const std::vector<double>& thresholds, std::size_t jobs) {
  ThresholdSweepResult sweep;
  threshold_sweep_redigitize(spec, base_config, thresholds,
                             exec::ParallelRunner(jobs),
                             collect_into(sweep, thresholds.size()));
  return sweep;
}

}  // namespace glva::core
