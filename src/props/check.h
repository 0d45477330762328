#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuits/circuit_spec.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "exec/parallel_runner.h"
#include "props/property.h"

/// `glva check` — temporal-property monitoring of simulated circuits.
/// Acquires the usual input-combination sweep through core::acquire (same
/// seeds, archives and digitization as `run_experiment`), then evaluates
/// each property's per-sample verdict stream with the packed monitor and
/// reduces it to per-input-combination satisfaction statistics along the
/// input runs. Replicate ensembles stream through
/// exec::ParallelRunner::run_reduce exactly like core::run_ensemble: O(1)
/// resident memory per replicate, an ordered observer tap for CSV export,
/// and job-count-independent results.
namespace glva::props {

/// Sentinel for "no violation observed".
inline constexpr std::size_t kNoViolation = static_cast<std::size_t>(-1);

/// Verdict of one property restricted to the samples of one input
/// combination (one replicate).
struct CombinationCheck {
  std::size_t combination = 0;
  std::size_t samples = 0;    ///< samples observed under the combination
  std::size_t satisfied = 0;  ///< of those, samples whose verdict is 1
  /// Lowest violating sample index, or kNoViolation.
  std::size_t first_violation = kNoViolation;

  /// Satisfaction fraction; a never-observed combination is vacuously 1.
  [[nodiscard]] double fraction() const noexcept {
    return samples == 0 ? 1.0
                        : static_cast<double>(satisfied) /
                              static_cast<double>(samples);
  }
};

/// Verdict of one property over one replicate's whole trace.
struct PropertyCheck {
  std::string property;  ///< canonical text (props::to_string)
  std::size_t samples = 0;
  std::size_t satisfied = 0;
  std::size_t first_violation = kNoViolation;
  std::vector<CombinationCheck> combinations;  ///< indexed by combination

  [[nodiscard]] double fraction() const noexcept {
    return samples == 0 ? 1.0
                        : static_cast<double>(satisfied) /
                              static_cast<double>(samples);
  }
};

/// One replicate's full check detail.
struct CheckReplicate {
  std::uint64_t seed = 0;
  std::size_t sample_count = 0;
  std::vector<PropertyCheck> properties;  ///< one per requested property
};

/// One replicate's check on its digitized planes: evaluate every
/// property with the packed monitor, then reduce each verdict per input
/// combination along the input runs (logic::InputRunWalker): range
/// popcounts give the satisfied samples and the first zero of the first
/// violating run gives the first violation. `names` names the planes,
/// inputs (MSB first) then the output; `seed` is only recorded. This is
/// the reduction run_check applies to every acquired replicate. Throws
/// glva::InvalidArgument for no inputs, more than 16, mismatched plane
/// lengths, or a property naming an unknown plane.
[[nodiscard]] CheckReplicate check_planes(
    const core::PackedDigitalData& data, const std::vector<std::string>& names,
    const std::vector<PropertyPtr>& properties, std::uint64_t seed = 0);

/// The reference form of check_planes: the naive evaluator of
/// reference.h and one loop step per sample over `vector<bool>` planes.
/// Kept as the test oracle check_planes is pinned bit-identical to.
[[nodiscard]] CheckReplicate check_planes_reference(
    const core::DigitalData& data, const std::vector<std::string>& names,
    const std::vector<PropertyPtr>& properties, std::uint64_t seed = 0);

/// Cross-replicate statistics for one property.
struct PropertyCheckStats {
  std::string property;  ///< canonical text
  /// Overall satisfaction fraction across replicates (mean/stddev/95% CI).
  core::MeanConfidence fraction;
  /// Replicates with at least one violating sample.
  std::size_t violated_replicates = 0;
  /// Per-combination satisfaction fraction across replicates.
  std::vector<core::MeanConfidence> combination_fraction;
};

/// Everything a check run produces. Replicate 0 is kept in full detail
/// (the single-replicate report); the rest collapse into the statistics.
struct CheckResult {
  std::string circuit_name;
  core::ExperimentConfig base_config;  ///< seed here is the *base* seed
  std::size_t replicate_count = 0;
  std::vector<std::uint64_t> replicate_seeds;

  std::size_t input_count = 0;
  std::vector<std::string> input_names;
  std::string output_name;
  std::size_t sample_count = 0;  ///< samples per replicate

  CheckReplicate first;  ///< replicate 0, full detail
  std::vector<PropertyCheckStats> properties;

  /// True when every property's mean overall satisfaction fraction is at
  /// least `min_satisfaction` — the CLI exit-status predicate.
  [[nodiscard]] bool satisfied(double min_satisfaction) const noexcept {
    for (const PropertyCheckStats& p : properties) {
      if (p.fraction.mean < min_satisfaction) return false;
    }
    return true;
  }
};

/// Tap on the check's ordered commit stream (see core::ReplicateObserver):
/// invoked once per replicate, in replicate order, on the calling thread.
using CheckObserver =
    std::function<void(std::size_t replicate, const CheckReplicate& result)>;

/// Run `replicates` independent simulate→digitize→monitor replicates,
/// seeded from (config.seed, replicate) via exec::SeedSequence, each
/// checked by check_planes. Throws glva::InvalidArgument on
/// zero replicates, an empty property list, a property referencing an
/// unknown plane, or a config core::acquire rejects.
[[nodiscard]] CheckResult run_check(const circuits::CircuitSpec& spec,
                                    const core::ExperimentConfig& config,
                                    const std::vector<PropertyPtr>& properties,
                                    std::size_t replicates,
                                    const exec::ParallelRunner& runner,
                                    const CheckObserver& observer = {});

/// Convenience overload owning a per-call runner of `jobs` workers.
[[nodiscard]] CheckResult run_check(const circuits::CircuitSpec& spec,
                                    const core::ExperimentConfig& config,
                                    const std::vector<PropertyPtr>& properties,
                                    std::size_t replicates,
                                    std::size_t jobs = 1,
                                    const CheckObserver& observer = {});

/// Deterministic text report: per-property combination table for
/// replicate 0, cross-replicate statistics when replicates > 1, and a
/// PASS/FAIL verdict line against `min_satisfaction`. No wall-clock
/// timings — byte-stable for a fixed seed (the golden test relies on it).
[[nodiscard]] std::string render_check_summary(const CheckResult& result,
                                               double min_satisfaction);

}  // namespace glva::props
