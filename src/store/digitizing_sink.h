#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "store/glvt.h"
#include "store/trace_sink.h"

namespace glva::store {

/// The fused sampler→ADC sink: each incoming sample is thresholded into
/// per-species `logic::BitStream` planes as it is produced, so an
/// analysis-only run never allocates the double-precision trace at all —
/// resident memory is samples / 8 bytes per tracked species instead of
/// samples · 8 bytes per *model* species. The comparison is the ADC's
/// (`value >= threshold`, inclusive; see `core::adc`), applied to exactly
/// the doubles the memory path would have stored, so the resulting planes
/// are bit-identical to `core::digitize_packed` over the materialized
/// trace — the equivalence `tests/test_store.cpp` pins.
///
/// Bits are word-buffered (the `adc_packed` trick): each plane accumulates
/// 64 comparisons in a pending register and commits whole BitStream words,
/// one store per 64 samples instead of a read-modify-write per bit;
/// `append_block` packs straight from the column spans, and `append_hold`
/// compares each tracked value once and fills the run's bits as masks and
/// whole words. The partial tail word is committed by `finish()`, so
/// planes are complete only after the stream is finished.
class DigitizingSink final : public TraceSink {
public:
  /// Optional spill tee: when configured, the committed plane words are
  /// also streamed chunk-wise into a v2 bit-plane `.glvt` file (header
  /// `content_kind = kBits`, `kWords` sections — see `store/glvt.h`), so
  /// a digitized run leaves a replayable artifact 64× smaller than the
  /// analog spill. The words are copied straight from the in-memory
  /// planes — no re-encoding, no extra buffering — and written through
  /// the same `glvt::FileWriter` as `SpillSink`'s; `SpillReader::
  /// read_planes` hands them back bit-identically with no re-thresholding.
  struct SpillOptions {
    std::string path;
    /// Samples per chunk; must be a positive multiple of 64.
    std::uint32_t chunk_samples = glvt::kDefaultChunkSamples;
    /// Recorded in the header (self-describing file, like SpillSink's).
    std::uint64_t seed = 0;
    double sampling_period = 1.0;
  };

  /// Track `species_ids` (any order, duplicates allowed — each entry gets
  /// its own plane) at ThVAL `threshold` (molecules, must be positive;
  /// throws glva::InvalidArgument otherwise).
  DigitizingSink(std::vector<std::string> species_ids, double threshold);

  /// Same, with the spill tee enabled. Throws glva::InvalidArgument for a
  /// bad chunk size or an empty path; the file is created in begin().
  DigitizingSink(std::vector<std::string> species_ids, double threshold,
                 SpillOptions spill);

  /// Resolves the tracked ids against the stream's species columns;
  /// throws glva::InvalidArgument for an unknown id.
  void begin(const std::vector<std::string>& species_names) override;

  /// One-sample `append_hold`.
  void append(double time, const std::vector<double>& values) override;

  /// Block fast path: packs each tracked column 64 samples per word
  /// directly from the spans, bit-identical to the row path. Throws
  /// glva::InvalidArgument on a block narrower than the tracked columns.
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override;

  /// Hold fast path: one `>= threshold` compare per tracked plane, then
  /// the run's bits as one pending-word mask, whole words, and a tail
  /// mask — bit-identical to the row path. Throws glva::InvalidArgument on
  /// a row narrower than the tracked columns.
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override;

  /// Commits the pending partial word of every plane; with the spill tee,
  /// also flushes the tail chunk, writes the chunk index, and finalizes
  /// the `.glvt` file (throws glva::StorageError on write failure).
  /// Planes are complete (and word counts final) only after this.
  void finish() override;

  /// The spill tee's file path ("" when the tee is off).
  [[nodiscard]] std::string spill_path() const {
    return archive_ ? archive_->path() : std::string();
  }

  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] const std::vector<std::string>& species_ids() const noexcept {
    return species_ids_;
  }

  /// The digitized planes, one per tracked id, in construction order
  /// (complete after finish(); mid-stream they hold only whole committed
  /// words).
  [[nodiscard]] const std::vector<logic::BitStream>& planes() const noexcept {
    return planes_;
  }

  /// Move plane `i` out (the zero-copy handoff into PackedDigitalData).
  /// Throws glva::InvalidArgument when i >= planes().size().
  [[nodiscard]] logic::BitStream take_plane(std::size_t i);

private:
  /// Commit every plane's pending word (precondition: samples_ % 64 == 0
  /// and 64 pending bits).
  void commit_words();

  /// Write every complete chunk of committed plane words to the spill
  /// file; `final` also writes the ragged tail chunk. No-op without the
  /// tee.
  void spill_chunks(bool final);

  std::vector<std::string> species_ids_;
  double threshold_;
  std::vector<std::size_t> columns_;  ///< tracked id -> species column
  std::size_t min_row_width_ = 0;     ///< 1 + max(columns_), row precondition
  std::vector<logic::BitStream> planes_;
  std::vector<std::uint64_t> pending_;  ///< one partial word per plane
  std::size_t samples_ = 0;  ///< total samples, committed + pending
  bool tail_committed_ = false;

  std::optional<glvt::FileWriter> archive_;  ///< the spill tee, if any
  std::uint64_t spilled_samples_ = 0;        ///< samples already on disk
};

}  // namespace glva::store
