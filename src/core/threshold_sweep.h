#pragma once

#include <functional>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_runner.h"

/// Threshold-robustness analysis — the paper's Figure 5 experiment: re-run
/// the same circuit with the threshold (and hence the applied input level)
/// set to different values and compare the logic each extracts. "It is
/// shown experimentally that the circuit may not behave as expected if the
/// circuit parameter(s), like threshold value, are varied."
namespace glva::core {

/// One threshold's outcome.
struct ThresholdPoint {
  double threshold = 0.0;
  ExperimentResult result;
};

struct ThresholdSweepResult {
  std::vector<ThresholdPoint> points;
};

/// Tap on a sweep's ordered commit stream: invoked once per threshold
/// point, in strict point order, on the calling thread, with the point
/// just before it is released — the sweep analogue of
/// core::ReplicateObserver. Consumers fold what they need (a table row, a
/// CSV record) and drop the rest, so a dense Fig.-5 grid never
/// materializes every point's ExperimentResult at once.
using ThresholdPointObserver =
    std::function<void(std::size_t index, ThresholdPoint&& point)>;

/// Run the full experiment once per threshold (molecules). Each run
/// re-applies the inputs at that threshold value (the paper's methodology
/// couples the two), so the circuit is re-simulated, not merely
/// re-digitized. Points come back in the order `thresholds` lists them; an
/// empty list yields an empty result.
///
/// Each point is one job of the exec/ runtime: up to `jobs` points are
/// simulated concurrently (0 = one per hardware thread), each on its own
/// `sim::Rng` constructed from the job's config, and committed in point
/// order — results are bit-identical for every jobs value. All points
/// deliberately share base_config.seed (common random numbers): a sweep
/// compares the *threshold parameter*, so reusing one stochastic
/// realization across points isolates its effect; use core::run_ensemble
/// for independent replicates.
[[nodiscard]] ThresholdSweepResult threshold_sweep(
    const circuits::CircuitSpec& spec, const ExperimentConfig& base_config,
    const std::vector<double>& thresholds, std::size_t jobs = 1);

/// Streaming form of threshold_sweep: points are delivered to `observer`
/// through exec::ParallelRunner::run_reduce's ordered commit stream and
/// then destroyed, so resident memory is bounded by the runner's in-flight
/// window however many thresholds the grid has. The materializing overload
/// above is this function plus a collecting observer (bit-identical).
/// `runner` may borrow a persistent pool (daemon mode) or own per-call
/// pools; results are identical either way.
void threshold_sweep(const circuits::CircuitSpec& spec,
                     const ExperimentConfig& base_config,
                     const std::vector<double>& thresholds,
                     const exec::ParallelRunner& runner,
                     const ThresholdPointObserver& observer);

/// Variant that keeps one simulation (at the base config's input level)
/// and only re-digitizes at each threshold — an ablation that isolates the
/// ADC's contribution to Figure 5's effect from the input-drive
/// contribution. The shared simulation uses base_config.seed directly; the
/// per-threshold re-analyses are fanned out across `jobs` workers. Under
/// the default packed backend the clamped input streams digitize
/// identically for every threshold at or below the drive level, so after
/// a parallel per-point input digitization the points are grouped by
/// their digitized input planes and share one `logic::CombinationIndex`
/// per group — the 2^N-mask construction (the expensive part) runs once
/// per *group*, and each point's job re-digitizes only the output stream
/// before the word-parallel stages. Results are bit-identical to a
/// per-point re-analysis. The shared run is a core::simulate_trace pass
/// (it keeps the analog trace to re-digitize), archived like any other
/// replicate when base_config names a spill directory.
[[nodiscard]] ThresholdSweepResult threshold_sweep_redigitize(
    const circuits::CircuitSpec& spec, const ExperimentConfig& base_config,
    const std::vector<double>& thresholds, std::size_t jobs = 1);

/// Streaming form of threshold_sweep_redigitize (same observer contract as
/// the streaming threshold_sweep).
void threshold_sweep_redigitize(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& base_config,
                                const std::vector<double>& thresholds,
                                const exec::ParallelRunner& runner,
                                const ThresholdPointObserver& observer);

}  // namespace glva::core
