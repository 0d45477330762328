#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "logic/bit_stream.h"

/// The `.glvt` ("GLVA trace") on-disk format: its section codecs, the one
/// writer both archives share (`FileWriter`, below), and the layout
/// `SpillReader` decodes. One file is one uniformly sampled
/// multi-species trace, stored as a fixed header followed by fixed-capacity
/// chunks and a trailing chunk index:
///
///   header   magic "GLVT", version, seed, sampling_period,
///            species_count, chunk_capacity, sample_count, chunk_count,
///            index_offset, [v2: content_kind, threshold], species names
///   chunk i  "CHNK", samples n, then one *section* per column:
///            times, species 0, species 1, ... (each raw, RLE, or grid)
///   index    chunk_count × u64 absolute file offsets (at index_offset)
///
/// Every chunk except the last holds exactly `chunk_capacity` samples, so
/// chunk i starts at sample i · chunk_capacity — random access needs no
/// per-chunk bookkeeping beyond the offset index. `chunk_capacity` is a
/// multiple of 64 so replayed chunks stay word-aligned for the bit-packed
/// analysis stage. The three patched header fields (sample_count,
/// chunk_count, index_offset) are zero while the writer is live;
/// index_offset == 0 is the "unfinished or truncated" sentinel the reader
/// rejects. Scalars are stored in the host's native byte order (the
/// supported targets are little-endian); doubles are stored bit-exactly,
/// which is what makes a spilled trace byte-for-byte reproducible and a
/// re-materialized one bit-identical to the memory path.
///
/// Version 2 extends the header with a content kind and ADC threshold and
/// adds two section encodings: `kGrid` (a sampler-written uniform time
/// grid collapses to its start time — the whole column is implied by
/// `sample_index · sampling_period`) and `kWords` (packed 64-bit
/// `BitStream` words — the chunk payload of a *digitized* file, written by
/// `write_planes` and handed back to the packed analyzer with no
/// re-thresholding). Version 1 files carry neither and still decode byte
/// for byte; the writer emits version 2 only.
///
/// See `docs/STORAGE.md` for the full layout diagram.
namespace glva::store::glvt {

inline constexpr char kMagic[4] = {'G', 'L', 'V', 'T'};
inline constexpr std::uint32_t kVersion = 2;
/// Oldest version the reader still decodes (byte-identically).
inline constexpr std::uint32_t kMinVersion = 1;
/// "CHNK" read as a little-endian u32.
inline constexpr std::uint32_t kChunkMagic = 0x4B4E4843u;
/// Default samples per chunk; must be a multiple of 64 (one chunk is then
/// an integral number of BitStream words when replayed into the digitizer).
inline constexpr std::uint32_t kDefaultChunkSamples = 4096;
/// Byte length of the v1 fixed header prefix (everything before the names).
inline constexpr std::size_t kHeaderFixedBytes = 56;
/// The v2 prefix appends content_kind (u32) and threshold (f64).
inline constexpr std::size_t kHeaderFixedBytesV2 = 68;
/// File offsets of the three fields patched on finish (same in v1 and v2:
/// the v2 additions sit after index_offset).
inline constexpr std::size_t kSampleCountOffset = 32;
inline constexpr std::size_t kChunkCountOffset = 40;
inline constexpr std::size_t kIndexOffsetOffset = 48;

/// What a v2 file's chunk sections carry. `kAnalog` files hold one f64
/// column per species (plus times); `kBits` files hold one packed bit
/// plane per tracked species, thresholded at the header's threshold — the
/// archived form of `DigitizingSink`'s planes. v1 files are always analog.
enum class ContentKind : std::uint32_t { kAnalog = 0, kBits = 1 };

/// Per-section payload encodings. RLE runs over *bit-identical* doubles
/// (compared as their 8-byte patterns, so NaNs and signed zeros round-trip
/// exactly): clamped input species and low-copy-number amounts compress by
/// orders of magnitude. Times — a strictly increasing grid — never RLE;
/// in v1 they land raw (8 bytes/sample), in v2 a sampler-written uniform
/// grid collapses to `kGrid` (8 bytes/chunk). `kWords` is the packed
/// bit-plane payload of a `kBits` file; v2-only, like `kGrid`.
enum class SectionEncoding : std::uint8_t {
  kRaw = 0,
  kRle = 1,
  kGrid = 2,
  kWords = 3
};

// Little bump allocators over std::string (the chunk build buffer).
void append_u32(std::string& out, std::uint32_t value);
void append_u64(std::string& out, std::uint64_t value);
void append_f64(std::string& out, double value);

/// A run of bit-identical doubles (compared as 8-byte patterns, so NaN
/// payloads and signed zeros stay apart): the pattern and how many
/// consecutive samples carry it.
struct Run {
  std::uint64_t bits;
  std::uint32_t count;
};

/// Fold `count` (> 0) samples of `value` into `runs`: the last run grows
/// when its bits match, anything else appends a run.
inline void append_run(std::vector<Run>& runs, double value,
                       std::uint32_t count) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if (!runs.empty() && runs.back().bits == bits) {
    runs.back().count += count;
  } else {
    runs.push_back({bits, count});
  }
}

/// Encode one column section of `samples` samples from its runs: encoding
/// tag (u8) + payload byte count (u32) + payload. The runs go out as RLE
/// (count u32, bits u64) records when strictly smaller than the raw
/// 8-byte-per-sample layout; otherwise (a tie included) expanded raw.
void encode_runs(std::span<const Run> runs, std::size_t samples,
                 std::string& out);

/// Encode one column section: `values` folded into runs, then encode_runs.
void encode_section(std::span<const double> values, std::string& out);

/// Decode one section of exactly `count` doubles from `buffer` starting at
/// `offset` into `values`, advancing `offset` past the section. `values` is
/// cleared and refilled in place (raw sections land as one memcpy), so a
/// chunked replay that hands the same column vectors back per chunk
/// decodes with no per-chunk allocations after the first. Throws
/// glva::StorageError on a truncated payload, an unknown encoding tag, or
/// an RLE stream whose run lengths do not sum to `count`.
void decode_section_into(std::string_view buffer, std::size_t& offset,
                         std::size_t count, std::vector<double>& values);

/// Encode a v2 time column. When every value is bit-identical to
/// `(first_sample + j) · sampling_period` — exactly how `sim::TraceSampler`
/// computes its grid — the column collapses to a `kGrid` section whose
/// 8-byte payload is the chunk's start time t0 = first_sample ·
/// sampling_period (redundant with the chunk index, kept as a corruption
/// check); any other producer falls back to `encode_section`. Returns true
/// when the grid form was used (the ~10× size win `spill.bytes_saved`
/// counts).
bool encode_time_section(const std::vector<double>& times,
                         std::uint64_t first_sample, double sampling_period,
                         std::string& out);

/// Decode a v2 time column: a `kGrid` section is reconstructed as
/// `(first_sample + j) · sampling_period` without touching any per-sample
/// bytes (after validating the stored t0 bit-matches); raw/RLE sections
/// delegate to `decode_section_into`. Throws glva::StorageError on a
/// malformed grid payload or a t0 that disagrees with the chunk's
/// position — a mis-indexed or corrupt grid chunk, not a decodable one.
void decode_time_section_into(std::string_view buffer, std::size_t& offset,
                              std::size_t count, std::uint64_t first_sample,
                              double sampling_period,
                              std::vector<double>& values);

/// Encode one bit-plane section of a `kBits` chunk: a `kWords` tag and the
/// plane's packed words verbatim (`word_count` = ceil(samples / 64), tail
/// bits zero per the BitStream invariant) — one memcpy from
/// `BitStream::words()`, no per-sample work.
void encode_words_section(const std::uint64_t* words, std::size_t word_count,
                          std::string& out);

/// Decode one `kWords` section of exactly `word_count` words, *appending*
/// to `words` (planes accumulate across chunks; chunk capacities are
/// multiples of 64, so every chunk boundary is a word boundary). Throws
/// glva::StorageError on a non-kWords tag or a payload that is not exactly
/// `word_count · 8` bytes.
void decode_words_section(std::string_view buffer, std::size_t& offset,
                          std::size_t word_count,
                          std::vector<std::uint64_t>& words);

/// The one `.glvt` writer, shared by `SpillSink` (analog columns) and
/// `write_planes` (`kWords` planes). It owns the file framing — the v2 header, each chunk's magic, sample count and offset,
/// the `store.spill.bytes_written` and `store.spill.chunks_flushed`
/// counters, and the index write and header patch that finish a file — so
/// a sink encodes only its chunk sections. Chunks go straight to one
/// buffered stream on the caller's thread. Every failure throws
/// glva::StorageError naming the owning sink and the path.
class FileWriter {
public:
  /// The header fields besides the species names.
  struct Header {
    ContentKind content = ContentKind::kAnalog;
    /// The ADC threshold a `kBits` file is digitized at; 0 for analog.
    double threshold = 0.0;
    std::uint64_t seed = 0;
    double sampling_period = 1.0;
    /// Samples per chunk; must be a positive multiple of 64.
    std::uint32_t chunk_capacity = kDefaultChunkSamples;
  };

  /// Touches no file yet. `owner` (a string literal) prefixes every error
  /// message. Throws glva::InvalidArgument for a zero or
  /// non-multiple-of-64 chunk capacity.
  FileWriter(std::string path, const char* owner, Header header);

  /// Create or truncate the file and write the header, one name per
  /// column; sample_count, chunk_count and index_offset stay zero until
  /// finish().
  void open(const std::vector<std::string>& names);

  /// Start the next chunk, of `samples` samples: returns the reused build
  /// buffer, already holding the chunk magic and sample count. Append the
  /// chunk's sections to it, then call write_chunk().
  [[nodiscard]] std::string& begin_chunk(std::uint32_t samples);

  /// Write the chunk built since begin_chunk() and record its offset.
  void write_chunk();

  /// Write the chunk index, patch sample_count and chunk_count, then
  /// index_offset last, so a crash mid-patch still reads as unfinished;
  /// then flush and close. A file whose writer never reaches this keeps
  /// index_offset == 0, and `SpillReader` rejects it.
  void finish(std::uint64_t sample_count);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const Header& header() const noexcept { return header_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunk_offsets_.size();
  }

private:
  /// Throw glva::StorageError "<owner>: <what>: <path>".
  [[noreturn]] void fail(const char* what) const;

  std::string path_;
  const char* owner_;
  Header header_;
  std::fstream file_;
  std::string chunk_;  ///< chunk build buffer, reused
  std::vector<std::uint64_t> chunk_offsets_;
  std::uint64_t write_offset_ = 0;  ///< file offset of the next chunk
};

/// Write finished bit planes (one per name `writer` was opened with, all
/// of one length) as the chunks of a `kBits` file, one `kWords` section
/// per plane per chunk, then finish the file. The words go out as the
/// planes hold them, tail bits zero. Throws glva::InvalidArgument when the
/// planes differ in length, and what `FileWriter` throws.
void write_planes(FileWriter& writer,
                  std::span<const logic::BitStream> planes);

}  // namespace glva::store::glvt
