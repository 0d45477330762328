#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuits/circuit_spec.h"
#include "exec/parallel_runner.h"
#include "core/logic_analyzer.h"
#include "core/verifier.h"
#include "sim/simulator.h"
#include "sim/virtual_lab.h"
#include "store/trace_sink.h"

/// The end-to-end experiment of Section III: simulate a circuit through a
/// full input-combination sweep, extract its logic, and verify it against
/// the intended function.
namespace glva::core {

/// Experiment parameters, defaulted to the paper's setup: 10,000 time
/// units total, threshold 15 molecules, inputs applied at the threshold
/// level, up to 25% output variation, 1-time-unit sampling.
struct ExperimentConfig {
  double total_time = 10000.0;  ///< sweep duration, time units (all 2^N phases)
  double threshold = 15.0;      ///< ThVAL, molecules; must be > 0
  double fov_ud = 0.25;         ///< FOV_UD, fraction in (0, 1]
  /// Input high level, molecules; < 0 means "apply inputs at the threshold
  /// value" (the paper's methodology).
  double input_high_level = -1.0;
  double sampling_period = 1.0;  ///< trace grid, time units per sample
  std::uint64_t seed = 1;        ///< RNG seed; equal seeds reproduce runs
  sim::SsaMethod method = sim::SsaMethod::kDirect;

  /// What an acquisition archives under `spill_dir` (see store::SinkKind
  /// and docs/STORAGE.md): kMemory nothing, kSpill the analog rows (a
  /// SpillSink .glvt), kDigitize the bit-planes (a v2 kBits .glvt that
  /// core::load_digitized replays into analyze_packed). Analysis always
  /// runs on the digitized planes, so the choice never changes a result.
  store::SinkKind sink = store::SinkKind::kMemory;
  /// Directory for the per-replicate .glvt archives; required when
  /// sink == kSpill, ignored under kMemory.
  std::string spill_dir;
  /// Archive filename stem override ("<stem>.glvt"); empty derives
  /// "<circuit>-s<seed>". Batch runners set it through core::job_config.
  std::string spill_stem;

  [[nodiscard]] double high_level() const noexcept {
    return input_high_level > 0.0 ? input_high_level : threshold;
  }
};

/// Everything one experiment produces. The samples themselves are not
/// kept: analysis runs on the digitized planes of core::acquire, and
/// core::simulate_trace draws the analog trace for code that needs it.
struct ExperimentResult {
  std::string circuit_name;
  ExperimentConfig config;
  sim::InputSchedule schedule;     ///< the sweep's input program
  ExtractionResult extraction;     ///< Algorithm 1 output
  VerificationReport verification; ///< vs the circuit's intended function
  double simulate_seconds = 0.0;   ///< wall time of the acquisition pass
  double analyze_seconds = 0.0;    ///< wall time of Algorithm 1
};

/// Run the full pipeline on a circuit: core::acquire the digitized planes
/// of one sweep over all 2^N input combinations (total_time split evenly
/// across phases), extract the logic with LogicAnalyzer::analyze_packed,
/// and verify it against spec.expected. Throws what core::acquire throws,
/// plus glva::InvalidArgument for invalid analyzer parameters.
[[nodiscard]] ExperimentResult run_experiment(const circuits::CircuitSpec& spec,
                                              const ExperimentConfig& config);

/// Repository-wide batch runner (the Table 1 workload): run the experiment
/// on every spec, one exec/ job per circuit, across up to `jobs` worker
/// threads (0 = one per hardware thread). Each circuit's RNG stream is
/// derived from (base_config.seed, circuit index) via exec::SeedSequence,
/// so circuits draw independent sample paths instead of replaying the same
/// random numbers against different models. Results come back in spec
/// order and are bit-identical for every jobs value; a failing circuit
/// rethrows from the lowest failed index.
[[nodiscard]] std::vector<ExperimentResult> run_batch(
    const std::vector<circuits::CircuitSpec>& specs,
    const ExperimentConfig& base_config, std::size_t jobs = 1);

/// Tap on a batch's ordered commit stream: invoked once per circuit, in
/// spec order, on the calling thread, with the result just before it is
/// released (the batch analogue of core::ReplicateObserver).
using BatchObserver =
    std::function<void(std::size_t index, ExperimentResult&& result)>;

/// Streaming form of run_batch: results are delivered to `observer`
/// through exec::ParallelRunner::run_reduce's ordered commit stream and
/// then destroyed — resident memory is bounded by the runner's in-flight
/// window, not the catalog size. The materializing overload above is this
/// function plus a collecting observer (bit-identical). `runner` may
/// borrow a persistent pool (daemon mode) or own per-call pools.
void run_batch(const std::vector<circuits::CircuitSpec>& specs,
               const ExperimentConfig& base_config,
               const exec::ParallelRunner& runner,
               const BatchObserver& observer);

/// Analyze an analog sweep under `config`'s analyzer settings — the trace
/// path. The re-digitize threshold ablation and the figure benches use it
/// on a core::simulate_trace sweep, and it is the oracle the tests hold
/// run_experiment to: reanalyze(spec, config, simulate_trace(spec,
/// config)) extracts bit-identically to run_experiment(spec, config).
[[nodiscard]] ExperimentResult reanalyze(const circuits::CircuitSpec& spec,
                                         const ExperimentConfig& config,
                                         const sim::SweepResult& sweep);

}  // namespace glva::core
