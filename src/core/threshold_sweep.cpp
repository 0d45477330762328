#include "core/threshold_sweep.h"

#include <chrono>

#include "core/acquire.h"
#include "core/adc.h"
#include "exec/parallel_runner.h"
#include "util/timer.h"

namespace glva::core {

namespace {

using util::seconds_since;

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

  if (!packed_applies(base_config.backend, spec.input_ids.size())) {
    // Reference (or beyond-auto-limit) path: plain per-point re-analysis.
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
    return;
  }

  // Packed path with index reuse: the inputs are *clamped*, so their
  // digitized bits only change when the threshold crosses the drive level
  // — for the usual dense sweep below the input level, every point
  // digitizes the inputs identically. Digitize the input planes for every
  // point (fanned out over the runner), group points by plane equality,
  // and build one CombinationIndex (the expensive 2^N-mask pass) per
  // distinct group; each point then only re-digitizes the output stream.
  // Results are bit-identical to the per-point reanalyze (the test suite
  // pins this).
  std::vector<std::vector<logic::BitStream>> point_inputs =
      runner.map<std::vector<logic::BitStream>>(
          thresholds.size(), [&](std::size_t i) {
            std::vector<logic::BitStream> inputs;
            inputs.reserve(spec.input_ids.size());
            for (const auto& id : spec.input_ids) {
              inputs.push_back(adc_packed(base.trace.series(id), thresholds[i]));
            }
            return inputs;
          });

  struct InputClass {
    std::vector<logic::BitStream> inputs;
    logic::CombinationIndex index;
  };
  std::vector<InputClass> classes;
  std::vector<std::size_t> class_of(thresholds.size(), 0);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    std::size_t match = classes.size();
    for (std::size_t k = 0; k < classes.size(); ++k) {
      if (classes[k].inputs == point_inputs[i]) {
        match = k;
        break;
      }
    }
    if (match == classes.size()) {
      logic::CombinationIndex index(point_inputs[i]);
      classes.push_back(
          InputClass{std::move(point_inputs[i]), std::move(index)});
    }
    // Duplicates are dropped as soon as they are classified, so the
    // P×N-plane transient of the parallel digitization decays to one
    // plane set per *class* before the analysis fan-out below.
    point_inputs[i] = {};
    class_of[i] = match;
  }
  point_inputs.clear();
  point_inputs.shrink_to_fit();

  runner.run_reduce<ThresholdPoint>(
      thresholds.size(),
      [&](std::size_t i) {
        ExperimentConfig config = base_config;
        config.threshold = thresholds[i];
        config.input_high_level = base_config.high_level();

        ExperimentResult point;
        point.circuit_name = spec.name;
        point.config = config;

        LogicAnalyzer analyzer(
            AnalyzerConfig{config.threshold, config.fov_ud, config.backend});
        const auto analyze_start = std::chrono::steady_clock::now();
        const logic::BitStream output =
            adc_packed(base.trace.series(spec.output_id), thresholds[i]);
        point.extraction = analyzer.analyze_packed_shared(
            classes[class_of[i]].index, output, spec.input_ids,
            spec.output_id);
        point.analyze_seconds = seconds_since(analyze_start);

        point.verification = verify(point.extraction, spec.expected);
        return ThresholdPoint{thresholds[i], std::move(point)};
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
