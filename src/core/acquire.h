#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuits/circuit_spec.h"
#include "core/adc.h"
#include "core/experiment.h"
#include "core/variation_analyzer.h"
#include "sim/input_schedule.h"
#include "sim/virtual_lab.h"

/// Acquisition — the one path from a circuit and an ExperimentConfig to
/// what Algorithm 1 and the property check consume. A replicate's
/// combination sweep streams its holds through the sinks its caller needs,
/// so no analysis op allocates the double-precision trace:
/// acquire_records reduces Algorithm 1's counts from the holds
/// (core::RecordSink) and builds no plane; acquire digitizes the I/O
/// planes (store::DigitizingSink, line 4's ADC fused into the sampler) for
/// the monitors. With a spill directory the same pass also archives the
/// replicate as one `.glvt` file: ExperimentConfig::sink names what is
/// archived (see docs/STORAGE.md).
namespace glva::core {

/// One replicate's acquisition.
struct Acquisition {
  /// acquire(): the digitized planes, in plane_names() order.
  PackedDigitalData planes;
  /// acquire_records(): Case_I, HIGH_O, O_Var and FOV_EST per combination.
  VariationAnalysis variation;
  sim::InputSchedule schedule;    ///< the sweep that produced them
  double simulate_seconds = 0.0;  ///< sweep wall time: SSA, sinks, archive
};

/// Reject a config no acquisition can run, before anything simulates:
/// total_time, sampling_period or threshold not finite and > 0 (a NaN
/// duration or period never ends the sampler's loop), fov_ud NaN or
/// outside (0, 1], or sink kSpill without a spill_dir. Throws
/// glva::InvalidArgument naming the field.
/// acquire() calls it; request parsing calls it too, so a daemon refuses
/// such a request before its cache lookup.
void validate(const ExperimentConfig& config);

/// Whether config's acquisition writes a `.glvt` archive: a spill_dir is
/// set and the sink is not kMemory.
[[nodiscard]] bool writes_archive(const ExperimentConfig& config) noexcept;

/// The species acquire() digitizes, in plane order: the circuit's inputs
/// (MSB first), then its output.
[[nodiscard]] std::vector<std::string> plane_names(
    const circuits::CircuitSpec& spec);

/// Simulate config's input-combination sweep once, thresholding the
/// circuit's I/O species at config.threshold as the samples arrive, into
/// the planes of check's monitors. With config.spill_dir set, the pass
/// also writes "<spill_dir>/<stem>.glvt": the analog rows under
/// SinkKind::kSpill, the bit-planes under kDigitize, nothing under
/// kMemory. The stem is config.spill_stem, or "<circuit>-s<seed>" when
/// that is empty.
///
/// Throws what validate() throws; glva::ValidationError for
/// unsimulatable models; glva::StorageError when the archive cannot be
/// written.
[[nodiscard]] Acquisition acquire(const circuits::CircuitSpec& spec,
                                  const ExperimentConfig& config);

/// The same pass reduced to Algorithm 1's counts (lines 4-6) as the holds
/// arrive — run_experiment's acquisition. It builds planes only when
/// config archives them (kDigitize); `planes` stays empty. Bit-identical
/// to analyze_runs(acquire(spec, config).planes). Throws what acquire()
/// throws, plus glva::InvalidArgument for no inputs or more than 16.
[[nodiscard]] Acquisition acquire_records(const circuits::CircuitSpec& spec,
                                          const ExperimentConfig& config);

/// The same pass, keeping the analog trace too — for code that draws or
/// re-digitizes it (the figure benches, the re-digitize ablation, trace
/// CSV comparisons) and for the trace-path test oracle
/// `reanalyze(spec, config, simulate_trace(spec, config))`. Same
/// validation and archive as acquire(); builds no plane unless it
/// archives them.
[[nodiscard]] sim::SweepResult simulate_trace(
    const circuits::CircuitSpec& spec, const ExperimentConfig& config);

/// `config` for job `index` of a batch: its archive stem becomes
/// "<stem><tag><index>", where <stem> is config's own, so parallel jobs
/// never share a file. The runners tag replicates "-r" and threshold
/// points "-p".
[[nodiscard]] ExperimentConfig job_config(const circuits::CircuitSpec& spec,
                                          const ExperimentConfig& config,
                                          const char* tag, std::size_t index);

}  // namespace glva::core
