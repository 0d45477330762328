#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "logic/bit_stream.h"
#include "sim/trace.h"
#include "store/glvt.h"
#include "store/trace_sink.h"

namespace glva::store {

/// Reader for `.glvt` spill files (see `store/glvt.h` for the layout).
/// Opening validates the header (magic, version, the finished-file
/// sentinel) and loads the chunk index; samples are then pulled back
/// either chunk-at-a-time (`read_chunk`, `replay` — bounded memory) or
/// all at once (`read_all` — re-materializes the `sim::Trace` for the
/// figure renderers and the reference analysis path).
///
/// Both on-disk versions decode here: v1 files replay byte-identically to
/// what they always did, v2 analog files reconstruct `kGrid` time columns
/// arithmetically (no per-sample decode), and v2 *bit-plane* files
/// (`content_kind() == kBits`) hand their packed words back through
/// `read_planes()` — word-aligned, never re-thresholded. The analog APIs
/// (`replay`, `read_all`, `read_chunk`, `write_csv`) reject bit-plane
/// files with glva::StorageError, and vice versa.
///
/// Each chunk's bytes are read into one reused buffer and decoded from
/// there.
class SpillReader {
public:
  /// One decoded chunk: `chunk_capacity()` rows for every chunk but the
  /// last. `first_sample` is the global index of row 0 (always a multiple
  /// of the chunk capacity, hence of 64 — word-aligned for BitStream
  /// consumers).
  struct Chunk {
    std::uint64_t first_sample = 0;
    std::vector<double> times;
    std::vector<std::vector<double>> series;  ///< [species][row]
  };

  /// Opens and validates. Throws glva::StorageError for an unreadable
  /// path, wrong magic, unsupported version, an unfinished/truncated file,
  /// a chunk index that does not fit the file, or header counts the file
  /// cannot hold (more species names than bytes for them, a sample count
  /// that needs a different number of chunks).
  explicit SpillReader(std::string path);

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;
  SpillReader(SpillReader&&) = delete;
  SpillReader& operator=(SpillReader&&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::vector<std::string>& species_names()
      const noexcept {
    return species_names_;
  }
  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return sample_count_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunk_offsets_.size();
  }
  [[nodiscard]] std::uint32_t chunk_capacity() const noexcept {
    return chunk_capacity_;
  }
  [[nodiscard]] double sampling_period() const noexcept {
    return sampling_period_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// On-disk format version (1 or 2).
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  /// What the chunks carry; v1 files are always analog.
  [[nodiscard]] glvt::ContentKind content_kind() const noexcept {
    return content_kind_;
  }
  /// The ADC threshold a bit-plane file was digitized at (0.0 for analog
  /// files — the field exists so a replay can refuse a threshold
  /// mismatch instead of silently re-labelling planes).
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  /// Decode chunk `index`. Throws glva::InvalidArgument for an
  /// out-of-range index and glva::StorageError for a corrupt chunk —
  /// including one whose sample count is not its share of the header's
  /// (`chunk_capacity()` for every chunk but the last, the rest for the
  /// last).
  [[nodiscard]] Chunk read_chunk(std::size_t index);

  /// Allocation-reusing form of `read_chunk`: refills `chunk` in place
  /// (same columns, same scratch), so a sequential replay decodes every
  /// chunk after the first with zero allocations. Same error contract.
  void read_chunk_into(std::size_t index, Chunk& chunk);

  /// Stream every sample, in order, into another sink (begin →
  /// append_block per decoded chunk → finish): each 4096-sample chunk is
  /// handed to the sink as one column-wise block instead of 4096 row
  /// appends — the block fast path of the replay pipeline. Replaying into
  /// a `MemorySink` reproduces the original trace bit for bit; replaying
  /// into a `DigitizingSink` digitizes a spilled trace without ever
  /// materializing it. Chunk capacities are multiples of 64, so every
  /// block a digitizing sink sees is word-aligned.
  void replay(TraceSink& sink);

  /// Re-materialize the full trace (replay into a MemorySink).
  [[nodiscard]] sim::Trace read_all();

  /// Reassemble a bit-plane file's packed planes, one `BitStream` per
  /// tracked species (in `species_names()` order): chunk word payloads are
  /// concatenated with bulk copies — chunk capacities are multiples of 64,
  /// so every chunk boundary is a word boundary and the planes come back
  /// word-aligned, bit-identical to the `DigitizingSink` planes that were
  /// spilled. Throws glva::StorageError on an analog file or a corrupt
  /// chunk.
  [[nodiscard]] std::vector<logic::BitStream> read_planes();

  /// Stream the trace as CSV, byte-identical to `sim::Trace::to_csv()` on
  /// the re-materialized trace, without holding more than one chunk.
  void write_csv(std::ostream& out);

private:
  /// Bytes [begin, end) of the file, read into `chunk_buffer_` (reused);
  /// the view is valid until the next call.
  [[nodiscard]] std::string_view file_bytes(std::uint64_t begin,
                                            std::uint64_t end);

  /// Throw glva::StorageError unless the file's content kind is `want` —
  /// the analog/bit-plane API guard.
  void require_content(glvt::ContentKind want, const char* api) const;

  /// The chunk framing check both chunk decoders share: bounds-check
  /// `index` (glva::InvalidArgument), take the chunk's bytes, check its
  /// magic and that its sample count is its share of the header's, hand
  /// `(bytes, offset past the prefix, samples)` to `decode_sections`,
  /// then require that the sections used every byte (glva::StorageError
  /// for each failure).
  template <typename DecodeSections>
  void decode_chunk(std::size_t index, DecodeSections&& decode_sections);

  std::string path_;
  std::ifstream file_;
  std::vector<std::string> species_names_;
  std::vector<std::uint64_t> chunk_offsets_;
  std::uint64_t sample_count_ = 0;
  std::uint64_t index_offset_ = 0;
  std::uint32_t chunk_capacity_ = 0;
  double sampling_period_ = 1.0;
  std::uint64_t seed_ = 0;
  std::uint32_t version_ = 0;
  glvt::ContentKind content_kind_ = glvt::ContentKind::kAnalog;
  double threshold_ = 0.0;
  std::string chunk_buffer_;  ///< raw chunk bytes, reused across reads
};

}  // namespace glva::store
