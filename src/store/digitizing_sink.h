#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "store/trace_sink.h"

namespace glva::store {

/// The packed ADC (Algorithm 1 line 4): each incoming sample is
/// thresholded into per-species `logic::BitStream` planes as it is
/// produced, so an analysis-only run never allocates the double-precision
/// trace at all — resident memory is samples / 8 bytes per tracked
/// species instead of samples · 8 bytes per *model* species. The
/// comparison is the ADC's (`value >= threshold`, inclusive; see
/// `core::adc`), applied to exactly the doubles the memory path would have
/// stored. Every packed digitization goes through this sink: the sampler's
/// holds in `core::acquire` (for the property check and the `--sink
/// digitize` archive), a materialized trace in `core::digitize_packed`,
/// and an analog archive's replay. Analysis ops build no plane: they
/// reduce their counts from the holds in `core::RecordSink`. The
/// `vector<bool>` `core::digitize` is the reference it is tested against.
///
/// Bits are word-buffered: each plane accumulates 64 comparisons in a
/// pending register and commits whole BitStream words, one store per 64
/// samples instead of a read-modify-write per bit. Both bulk deliveries
/// top up the pending word, commit whole words and leave a tail pending:
/// `append_hold` compares each tracked value once and fills the run's bits
/// as masks, and `append_block` packs each word's comparisons straight
/// from the column spans. The partial tail word is committed by
/// `finish()`, so planes are complete only after the stream is finished.
/// The sink writes no file; `glvt::write_planes` archives the finished
/// planes.
/// The ADC's species resolution, shared by DigitizingSink::begin and
/// core::RecordSink::begin: the column of each of `species_ids` in a
/// stream's `species_names` (its first match), in `species_ids` order.
/// Throws glva::InvalidArgument naming the first id the stream lacks.
[[nodiscard]] std::vector<std::size_t> resolve_columns(
    const std::vector<std::string>& species_ids,
    const std::vector<std::string>& species_names);

class DigitizingSink final : public TraceSink {
public:
  /// Track `species_ids` (any order, duplicates allowed — each entry gets
  /// its own plane) at ThVAL `threshold` (molecules, must be positive;
  /// throws glva::InvalidArgument otherwise).
  DigitizingSink(std::vector<std::string> species_ids, double threshold);

  /// Resolves the tracked ids against the stream's species columns
  /// (resolve_columns); throws glva::InvalidArgument for an unknown id.
  void begin(const std::vector<std::string>& species_names) override;

  /// One-sample `append_hold`.
  void append(double time, const std::vector<double>& values) override;

  /// Block path: packs each tracked column straight from the spans into
  /// the pending word, whole words and a tail, as a hold fills them —
  /// bit-identical to the row path. Throws
  /// glva::InvalidArgument on a block narrower than the tracked columns or
  /// a column whose length differs from the time column's.
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override;

  /// Hold fast path: one `>= threshold` compare per tracked plane, then
  /// the run's bits as one pending-word mask, whole words, and a tail
  /// mask — bit-identical to the row path. Throws glva::InvalidArgument on
  /// a row narrower than the tracked columns.
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override;

  /// Commits the pending partial word of every plane. Planes are complete
  /// (and word counts final) only after this.
  void finish() override;

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
  std::vector<std::string> species_ids_;
  double threshold_;
  std::vector<std::size_t> columns_;  ///< tracked id -> species column
  std::size_t min_row_width_ = 0;     ///< 1 + max(columns_), row precondition
  std::vector<logic::BitStream> planes_;
  std::vector<std::uint64_t> pending_;  ///< one partial word per plane
  std::size_t samples_ = 0;  ///< total samples, committed + pending
  bool tail_committed_ = false;
};

}  // namespace glva::store
