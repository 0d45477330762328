#pragma once

#include <span>
#include <string>
#include <vector>

/// Streaming trace storage — the bounded-memory I/O layer between the
/// stochastic simulators and everything that consumes their samples. The
/// simulator no longer has to materialize a full `sim::Trace` before the
/// analysis stage sees a single sample: `sim::TraceSampler` pushes every
/// grid row into a `TraceSink`, and the sink decides what to keep —
/// everything in RAM (`MemorySink`, the reference path), chunked on disk
/// (`SpillSink`, the `.glvt` format), only the digitized bit-planes
/// (`DigitizingSink`, the fused sampler→ADC path of the property check),
/// or only Algorithm 1's per-combination counts (`core::RecordSink`, the
/// analysis ops).
/// See `docs/STORAGE.md` for the sink model and the memory budget of
/// 10^7-sample runs.
namespace glva::store {

/// Receiver of uniformly sampled simulation rows. The producer calls
/// `begin` exactly once, then any interleaving of `append` (one row),
/// `append_block` (a column-wise run of rows) and `append_hold` (a run of
/// rows that all carry one value row) in time order, then `finish` exactly
/// once. Row, block and hold deliveries are equivalent by contract: a sink
/// must produce bit-identical state for the same samples however they were
/// sliced into calls (the equivalence `tests/test_store.cpp` fuzzes).
/// Sinks are single-run, single-threaded objects: the exec/ runtime gives
/// every parallel job its own sink and commits results in job-index order,
/// so the determinism contract of `exec::ParallelRunner` is untouched by
/// where samples land.
class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// Start a stream: one column per species, in network order. Called
  /// before the first delivery.
  virtual void begin(const std::vector<std::string>& species_names) = 0;

  /// One sample row on the uniform time grid. `values` holds at least one
  /// amount per declared species (extra trailing entries are ignored,
  /// mirroring `sim::Trace::append`).
  virtual void append(double time, const std::vector<double>& values) = 0;

  /// A block of consecutive grid samples, column-wise: `series` holds at
  /// least one column per declared species (extra trailing columns are
  /// ignored), each exactly `times.size()` values long. Semantically
  /// identical to `times.size()` `append` calls in order — the base
  /// implementation is exactly that row-wise loop — but sinks override it
  /// to move whole columns at once: `MemorySink` bulk-copies,
  /// `SpillSink` encodes full chunks, and `DigitizingSink` packs 64
  /// samples per BitStream word. This is the path `SpillReader::replay`
  /// drives.
  virtual void append_block(std::span<const double> times,
                            std::span<const std::span<const double>> series);

  /// `times.size()` consecutive grid samples (possibly none) that all carry
  /// `values` (same width rule as `append`): a zero-order hold, the run a
  /// stochastic trajectory spends between two events. Semantically
  /// identical to `times.size()` `append(time, values)` calls in order —
  /// the base implementation is exactly that loop — but sinks override it
  /// to fill instead of copy: `SpillSink` extends one run per species and
  /// `DigitizingSink` compares each tracked value once and fills whole
  /// words. This is the path `sim::TraceSampler` drives.
  virtual void append_hold(std::span<const double> times,
                           const std::vector<double>& values);

  /// Stream complete: flush buffers, seal files, release what can be
  /// released. No delivery may follow.
  virtual void finish() = 0;
};

/// What an experiment archives per replicate under its spill directory
/// (`ExperimentConfig::sink`, CLI `--sink mem|spill|digitize`). Analysis
/// and the property check always run on what core::acquire reduces or
/// digitizes during the simulation, never on the archive, so every kind
/// yields bit-identical results; they differ only in what survives the
/// run on disk.
enum class SinkKind {
  kMemory,    ///< archive nothing
  kSpill,     ///< the analog rows, as a chunked .glvt (SpillSink tee)
  kDigitize,  ///< the digitized bit-planes, as a kBits .glvt
};

/// Stable name ("mem" / "spill" / "digitize") and its inverse; parse
/// accepts "memory" as an alias for "mem" and throws glva::InvalidArgument
/// for anything else.
[[nodiscard]] const char* sink_kind_name(SinkKind kind);
[[nodiscard]] SinkKind parse_sink_kind(const std::string& name);

}  // namespace glva::store
