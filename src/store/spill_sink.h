#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/glvt.h"
#include "store/trace_sink.h"

namespace glva::store {

/// Disk-spilling sink: samples accumulate in a fixed-capacity chunk buffer
/// and are flushed to a `.glvt` file every `chunk_samples` samples, so
/// resident memory is O(chunk_samples · species) however long the run —
/// the enabling path for 10^7–10^8-sample realizations. The buffer keeps
/// the chunk's times as values and each species column as its runs of
/// bit-identical values (`glvt::append_run`), so a hold costs one run
/// update per species however many samples it spans. At each flush the
/// sink encodes the chunk's analog sections (a grid or raw/RLE time
/// column, then each species' runs as RLE when that is strictly smaller,
/// else expanded raw); `glvt::FileWriter` writes them
/// synchronously and owns the header, the chunk index and the finishing
/// patch. A file whose sink never reached `finish()` (crash, exception
/// unwinding) keeps its unfinished-file sentinel, and `SpillReader`
/// rejects it.
class SpillSink final : public TraceSink {
public:
  struct Options {
    /// Samples buffered per chunk; must be a positive multiple of 64 (the
    /// BitStream word size — keeps replayed chunks word-aligned).
    std::uint32_t chunk_samples = glvt::kDefaultChunkSamples;
    /// Recorded in the header so a spill file is self-describing: the RNG
    /// seed that produced the trace and its sampling period. The period
    /// doubles as the grid baseline: chunks whose times are bit-identical
    /// to `sample_index · sampling_period` collapse to kGrid sections.
    std::uint64_t seed = 0;
    double sampling_period = 1.0;
  };

  /// Throws glva::InvalidArgument for a zero or non-multiple-of-64 chunk
  /// size. The file is created in begin(), not here.
  explicit SpillSink(std::string path);  // default Options
  SpillSink(std::string path, Options options);

  /// Creates/truncates the file and writes the header. Throws
  /// glva::StorageError when the path cannot be opened.
  void begin(const std::vector<std::string>& species_names) override;

  /// One-sample `append_hold`.
  void append(double time, const std::vector<double>& values) override;

  /// Buffer a column-wise block, flushing every chunk it fills — each
  /// column folded into its runs; the file bytes are identical to the row
  /// path's however the samples were sliced.
  /// Throws glva::InvalidArgument on a block narrower than the species
  /// list and glva::StorageError on write failure.
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override;

  /// Buffer a hold, flushing every chunk it fills — the times copied, each
  /// species' last run extended or one run appended (a hold straddling a
  /// chunk splits there); the file bytes are identical to the row path's.
  /// Throws glva::InvalidArgument on a row narrower than the species list
  /// and glva::StorageError on write failure.
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override;

  /// Flush the tail chunk, write the chunk index, patch the header, and
  /// close the file. Throws glva::StorageError on any write failure.
  void finish() override;

  [[nodiscard]] const std::string& path() const noexcept {
    return file_.path();
  }
  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return sample_count_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return file_.chunk_count();
  }

private:
  void flush_chunk();

  glvt::FileWriter file_;
  std::vector<double> times_;                 ///< buffered chunk column
  std::vector<std::vector<glvt::Run>> runs_;  ///< [species] chunk's runs
  std::uint64_t sample_count_ = 0;
  bool finished_ = false;
};

}  // namespace glva::store
