#include "store/spill_reader.h"

#include <cstring>

#include "store/glvt.h"
#include "store/memory_sink.h"
#include "util/csv.h"
#include "util/errors.h"
#include "util/string_util.h"

namespace glva::store {

namespace {

std::string read_bytes(std::ifstream& file, std::size_t count,
                       const char* what) {
  std::string buffer(count, '\0');
  file.read(buffer.data(), static_cast<std::streamsize>(count));
  if (static_cast<std::size_t>(file.gcount()) != count) {
    throw StorageError(std::string("SpillReader: truncated ") + what);
  }
  return buffer;
}

template <typename T>
T take(std::string_view buffer, std::size_t& offset) {
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

SpillReader::SpillReader(std::string path) : path_(std::move(path)) {
  file_.open(path_, std::ios::binary);
  if (!file_) {
    throw StorageError("SpillReader: cannot open spill file: " + path_);
  }
  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());
  file_.seekg(0);

  if (file_size < glvt::kHeaderFixedBytes) {
    throw StorageError("SpillReader: truncated header: " + path_);
  }
  const std::string header =
      read_bytes(file_, glvt::kHeaderFixedBytes, "header");
  std::size_t offset = 0;
  if (std::memcmp(header.data(), glvt::kMagic, sizeof glvt::kMagic) != 0) {
    throw StorageError("SpillReader: not a .glvt file (bad magic): " + path_);
  }
  offset += sizeof glvt::kMagic;
  version_ = take<std::uint32_t>(header, offset);
  if (version_ < glvt::kMinVersion || version_ > glvt::kVersion) {
    throw StorageError("SpillReader: unsupported .glvt version " +
                       std::to_string(version_) + ": " + path_);
  }
  seed_ = take<std::uint64_t>(header, offset);
  sampling_period_ = take<double>(header, offset);
  const auto species_count = take<std::uint32_t>(header, offset);
  chunk_capacity_ = take<std::uint32_t>(header, offset);
  sample_count_ = take<std::uint64_t>(header, offset);
  const auto chunk_count = take<std::uint64_t>(header, offset);
  index_offset_ = take<std::uint64_t>(header, offset);

  if (version_ >= 2) {
    // The v2 header tail: what the chunks carry, and the ADC threshold a
    // bit-plane file was digitized at.
    if (file_size < glvt::kHeaderFixedBytesV2) {
      throw StorageError("SpillReader: truncated header: " + path_);
    }
    const std::string tail = read_bytes(
        file_, glvt::kHeaderFixedBytesV2 - glvt::kHeaderFixedBytes, "header");
    std::size_t tail_offset = 0;
    const auto content = take<std::uint32_t>(tail, tail_offset);
    if (content > static_cast<std::uint32_t>(glvt::ContentKind::kBits)) {
      throw StorageError("SpillReader: unknown content kind: " + path_);
    }
    content_kind_ = static_cast<glvt::ContentKind>(content);
    threshold_ = take<double>(tail, tail_offset);
    if (content_kind_ == glvt::ContentKind::kBits && !(threshold_ > 0.0)) {
      throw StorageError(
          "SpillReader: bit-plane file with a non-positive threshold: " +
          path_);
    }
  }

  if (index_offset_ == 0) {
    throw StorageError(
        "SpillReader: unfinished or truncated spill file (no chunk index): " +
        path_);
  }
  if (chunk_capacity_ == 0 || chunk_capacity_ % 64 != 0) {
    throw StorageError("SpillReader: corrupt chunk capacity: " + path_);
  }
  const std::uint64_t fixed_bytes = version_ >= 2 ? glvt::kHeaderFixedBytesV2
                                                  : glvt::kHeaderFixedBytes;
  // Division, not multiplication: a crafted chunk_count near 2^61 would
  // wrap `chunk_count * 8` and slip past the fit check, then blow up in
  // reserve() below with the wrong exception type.
  if (index_offset_ < fixed_bytes || index_offset_ > file_size ||
      (file_size - index_offset_) % sizeof(std::uint64_t) != 0 ||
      chunk_count != (file_size - index_offset_) / sizeof(std::uint64_t)) {
    throw StorageError("SpillReader: chunk index does not fit the file: " +
                       path_);
  }
  // Every name costs at least its u32 length, all before the chunks: this
  // bounds the reserve() below by the file, not by a crafted count.
  if (species_count > (index_offset_ - fixed_bytes) / sizeof(std::uint32_t)) {
    throw StorageError("SpillReader: species count does not fit the file: " +
                       path_);
  }
  // Every chunk but the last is full, so the count fixes the chunk count:
  // ceil(sample_count / chunk_capacity) == chunk_count, computed without
  // overflow (and zero samples means zero chunks). decode_chunk() then
  // holds each chunk to its share.
  if (sample_count_ / chunk_capacity_ +
          (sample_count_ % chunk_capacity_ != 0 ? 1 : 0) !=
      chunk_count) {
    throw StorageError(
        "SpillReader: sample count does not fit the chunk index: " + path_);
  }

  species_names_.reserve(species_count);
  for (std::uint32_t s = 0; s < species_count; ++s) {
    const std::string len_bytes =
        read_bytes(file_, sizeof(std::uint32_t), "species name");
    std::size_t len_offset = 0;
    const auto len = take<std::uint32_t>(len_bytes, len_offset);
    // Bound the allocation before read_bytes trusts the length field.
    if (len > file_size) {
      throw StorageError("SpillReader: corrupt species-name length: " +
                         path_);
    }
    species_names_.push_back(read_bytes(file_, len, "species name"));
  }

  file_.seekg(static_cast<std::streamoff>(index_offset_));
  const std::string index =
      read_bytes(file_, chunk_count * sizeof(std::uint64_t), "chunk index");
  offset = 0;
  chunk_offsets_.reserve(chunk_count);
  for (std::uint64_t c = 0; c < chunk_count; ++c) {
    const auto chunk_offset = take<std::uint64_t>(index, offset);
    if (chunk_offset >= index_offset_) {
      throw StorageError("SpillReader: chunk offset past the index: " + path_);
    }
    chunk_offsets_.push_back(chunk_offset);
  }
}

std::string_view SpillReader::file_bytes(std::uint64_t begin,
                                         std::uint64_t end) {
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(begin));
  chunk_buffer_.resize(static_cast<std::size_t>(end - begin));
  file_.read(chunk_buffer_.data(),
             static_cast<std::streamsize>(chunk_buffer_.size()));
  if (static_cast<std::size_t>(file_.gcount()) != chunk_buffer_.size()) {
    throw StorageError("SpillReader: truncated chunk");
  }
  return chunk_buffer_;
}

void SpillReader::require_content(glvt::ContentKind want,
                                  const char* api) const {
  if (content_kind_ == want) return;
  if (want == glvt::ContentKind::kAnalog) {
    throw StorageError(std::string("SpillReader::") + api +
                       ": bit-plane file holds no analog samples "
                       "(use read_planes): " +
                       path_);
  }
  throw StorageError(std::string("SpillReader::") + api +
                     ": analog file holds no bit planes "
                     "(replay into a DigitizingSink instead): " +
                     path_);
}

template <typename DecodeSections>
void SpillReader::decode_chunk(std::size_t index,
                               DecodeSections&& decode_sections) {
  if (index >= chunk_offsets_.size()) {
    throw InvalidArgument("SpillReader::read_chunk: index out of range");
  }
  const bool last = index + 1 == chunk_offsets_.size();
  const std::uint64_t begin = chunk_offsets_[index];
  const std::uint64_t end = last ? index_offset_ : chunk_offsets_[index + 1];
  if (end <= begin) {
    throw StorageError("SpillReader: corrupt chunk index: " + path_);
  }
  const std::string_view bytes = file_bytes(begin, end);

  std::size_t offset = 0;
  if (bytes.size() < 2 * sizeof(std::uint32_t) ||
      take<std::uint32_t>(bytes, offset) != glvt::kChunkMagic) {
    throw StorageError("SpillReader: bad chunk magic: " + path_);
  }
  // Every chunk but the last is exactly full and the last holds the rest
  // (the header check at open makes that 1..chunk_capacity samples), so
  // the chunks cover sample_count() exactly: chunk i starts at sample
  // i · chunk_capacity, and planes concatenate word-aligned.
  const auto samples = take<std::uint32_t>(bytes, offset);
  const std::uint64_t expected =
      last ? sample_count_ - static_cast<std::uint64_t>(index) * chunk_capacity_
           : chunk_capacity_;
  if (samples != expected) {
    throw StorageError("SpillReader: corrupt chunk sample count: " + path_);
  }
  decode_sections(bytes, offset, samples);
  if (offset != bytes.size()) {
    throw StorageError("SpillReader: trailing bytes in chunk: " + path_);
  }
}

void SpillReader::read_chunk_into(std::size_t index, Chunk& chunk) {
  require_content(glvt::ContentKind::kAnalog, "read_chunk");
  chunk.first_sample = static_cast<std::uint64_t>(index) * chunk_capacity_;
  chunk.series.resize(species_names_.size());
  decode_chunk(index, [&](std::string_view bytes, std::size_t& offset,
                          std::uint32_t samples) {
    if (version_ >= 2) {
      glvt::decode_time_section_into(bytes, offset, samples,
                                     chunk.first_sample, sampling_period_,
                                     chunk.times);
    } else {
      glvt::decode_section_into(bytes, offset, samples, chunk.times);
    }
    for (auto& series : chunk.series) {
      glvt::decode_section_into(bytes, offset, samples, series);
    }
  });
}

SpillReader::Chunk SpillReader::read_chunk(std::size_t index) {
  Chunk chunk;
  read_chunk_into(index, chunk);
  return chunk;
}

void SpillReader::replay(TraceSink& sink) {
  require_content(glvt::ContentKind::kAnalog, "replay");
  sink.begin(species_names_);
  Chunk chunk;  // decode buffers reused across every chunk
  std::vector<std::span<const double>> columns(species_names_.size());
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    read_chunk_into(c, chunk);
    for (std::size_t s = 0; s < columns.size(); ++s) {
      columns[s] = chunk.series[s];
    }
    sink.append_block(chunk.times, columns);
  }
  sink.finish();
}

sim::Trace SpillReader::read_all() {
  MemorySink sink;
  replay(sink);
  return sink.take();
}

std::vector<logic::BitStream> SpillReader::read_planes() {
  require_content(glvt::ContentKind::kBits, "read_planes");
  const std::uint64_t total_words = (sample_count_ + 63) / 64;
  // Every plane stores all of its words before the index, so a count the
  // file cannot hold is corrupt: caught before it sizes an allocation
  // (a crafted chunk capacity lets a tiny file claim ~2^29 samples per
  // byte of index).
  if (total_words > index_offset_ / sizeof(std::uint64_t)) {
    throw StorageError("SpillReader: sample count does not fit the file: " +
                       path_);
  }
  std::vector<std::vector<std::uint64_t>> words(species_names_.size());
  for (auto& plane : words) {
    plane.reserve(static_cast<std::size_t>(total_words));
  }

  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    decode_chunk(c, [&](std::string_view bytes, std::size_t& offset,
                        std::uint32_t samples) {
      const std::size_t chunk_words = (samples + 63) / 64;
      for (auto& plane : words) {
        glvt::decode_words_section(bytes, offset, chunk_words, plane);
      }
    });
  }

  std::vector<logic::BitStream> planes;
  planes.reserve(words.size());
  for (auto& plane : words) {
    // from_words re-masks the tail word, so a corrupt tail cannot break
    // the BitStream zero-tail invariant downstream kernels rely on.
    planes.push_back(logic::BitStream::from_words(
        static_cast<std::size_t>(sample_count_), std::move(plane)));
  }
  return planes;
}

void SpillReader::write_csv(std::ostream& out) {
  require_content(glvt::ContentKind::kAnalog, "write_csv");
  {
    util::CsvWriter header;
    std::vector<std::string> fields{"time"};
    fields.insert(fields.end(), species_names_.begin(), species_names_.end());
    header.add_row(fields);
    out << header.str();
  }
  Chunk chunk;  // decode buffers reused across every chunk
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    read_chunk_into(c, chunk);
    util::CsvWriter rows;
    std::vector<std::string> row;
    for (std::size_t k = 0; k < chunk.times.size(); ++k) {
      row.clear();
      row.reserve(1 + species_names_.size());
      row.push_back(util::format_double(chunk.times[k]));
      for (std::size_t s = 0; s < species_names_.size(); ++s) {
        row.push_back(util::format_double(chunk.series[s][k]));
      }
      rows.add_row(row);
    }
    out << rows.str();
  }
}

}  // namespace glva::store
