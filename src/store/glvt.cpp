#include "store/glvt.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store::glvt {

namespace {

template <typename T>
void append_pod(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T read_pod(std::string_view buffer, std::size_t& offset, const char* what) {
  if (buffer.size() - offset < sizeof(T) || offset > buffer.size()) {
    throw StorageError(std::string(what) + ": truncated section");
  }
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// One `kRle` record: run length (u32), then the value's bits (u64).
constexpr std::size_t kRunBytes = sizeof(std::uint32_t) + sizeof(double);

double bits_double(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

}  // namespace

void append_u32(std::string& out, std::uint32_t value) {
  append_pod(out, value);
}
void append_u64(std::string& out, std::uint64_t value) {
  append_pod(out, value);
}
void append_f64(std::string& out, double value) { append_pod(out, value); }

void encode_runs(std::span<const Run> runs, std::size_t samples,
                 std::string& out) {
  const std::size_t raw_bytes = samples * sizeof(double);
  const std::size_t rle_bytes = runs.size() * kRunBytes;
  const bool rle = rle_bytes < raw_bytes;
  out.push_back(
      static_cast<char>(rle ? SectionEncoding::kRle : SectionEncoding::kRaw));
  append_u32(out, static_cast<std::uint32_t>(rle ? rle_bytes : raw_bytes));
  const std::size_t start = out.size();
  out.resize(start + (rle ? rle_bytes : raw_bytes));
  char* at = out.data() + start;
  for (const Run& run : runs) {
    if (rle) {
      std::memcpy(at, &run.count, sizeof run.count);
      std::memcpy(at + sizeof run.count, &run.bits, sizeof run.bits);
      at += kRunBytes;
    } else {
      for (std::uint32_t k = 0; k < run.count; ++k, at += sizeof run.bits) {
        std::memcpy(at, &run.bits, sizeof run.bits);
      }
    }
  }
}

void encode_section(std::span<const double> values, std::string& out) {
  std::vector<Run> runs;
  for (const double value : values) append_run(runs, value, 1);
  encode_runs(runs, values.size(), out);
}

void decode_section_into(std::string_view buffer, std::size_t& offset,
                         std::size_t count, std::vector<double>& values) {
  const auto tag = read_pod<std::uint8_t>(buffer, offset, "glvt section");
  const auto payload_bytes =
      read_pod<std::uint32_t>(buffer, offset, "glvt section");
  if (buffer.size() - offset < payload_bytes) {
    throw StorageError("glvt section: truncated payload");
  }
  const std::size_t payload_end = offset + payload_bytes;

  values.clear();
  if (tag == static_cast<std::uint8_t>(SectionEncoding::kRaw)) {
    if (payload_bytes != count * sizeof(double)) {
      throw StorageError("glvt section: raw payload size mismatch");
    }
    // Doubles are stored bit-exactly in file order: one bulk copy.
    values.resize(count);
    std::memcpy(values.data(), buffer.data() + offset, payload_bytes);
    offset = payload_end;
  } else if (tag == static_cast<std::uint8_t>(SectionEncoding::kRle)) {
    values.reserve(count);
    while (offset < payload_end) {
      const auto run = read_pod<std::uint32_t>(buffer, offset, "glvt section");
      const auto bits = read_pod<std::uint64_t>(buffer, offset, "glvt section");
      if (run == 0 || values.size() + run > count) {
        throw StorageError("glvt section: RLE run overflows sample count");
      }
      values.insert(values.end(), run, bits_double(bits));
    }
    if (values.size() != count) {
      throw StorageError("glvt section: RLE runs do not cover the chunk");
    }
  } else {
    throw StorageError("glvt section: unknown encoding tag");
  }
  if (offset != payload_end) {
    throw StorageError("glvt section: payload size mismatch");
  }
}

bool encode_time_section(const std::vector<double>& times,
                         std::uint64_t first_sample, double sampling_period,
                         std::string& out) {
  bool grid = sampling_period > 0.0 && !times.empty();
  for (std::size_t j = 0; grid && j < times.size(); ++j) {
    // Bit comparison, not ==: the grid claim must survive replay exactly,
    // and a NaN or -0.0 anywhere must force the fallback.
    const double expected =
        static_cast<double>(first_sample + j) * sampling_period;
    grid = double_bits(times[j]) == double_bits(expected);
  }
  if (!grid) {
    encode_section(times, out);
    return false;
  }
  out.push_back(static_cast<char>(SectionEncoding::kGrid));
  append_u32(out, sizeof(double));
  append_f64(out, static_cast<double>(first_sample) * sampling_period);
  return true;
}

void decode_time_section_into(std::string_view buffer, std::size_t& offset,
                              std::size_t count, std::uint64_t first_sample,
                              double sampling_period,
                              std::vector<double>& values) {
  if (offset >= buffer.size() ||
      buffer[offset] != static_cast<char>(SectionEncoding::kGrid)) {
    decode_section_into(buffer, offset, count, values);
    return;
  }
  ++offset;  // tag
  const auto payload_bytes =
      read_pod<std::uint32_t>(buffer, offset, "glvt grid section");
  if (payload_bytes != sizeof(double)) {
    throw StorageError("glvt grid section: payload size mismatch");
  }
  const auto t0 = read_pod<double>(buffer, offset, "glvt grid section");
  const double expected = static_cast<double>(first_sample) * sampling_period;
  if (double_bits(t0) != double_bits(expected)) {
    throw StorageError(
        "glvt grid section: start time disagrees with the chunk position");
  }
  values.clear();
  values.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    values.push_back(static_cast<double>(first_sample + j) * sampling_period);
  }
}

void encode_words_section(const std::uint64_t* words, std::size_t word_count,
                          std::string& out) {
  out.push_back(static_cast<char>(SectionEncoding::kWords));
  const std::size_t payload_bytes = word_count * sizeof(std::uint64_t);
  append_u32(out, static_cast<std::uint32_t>(payload_bytes));
  const std::size_t start = out.size();
  out.resize(start + payload_bytes);
  std::memcpy(out.data() + start, words, payload_bytes);
}

void decode_words_section(std::string_view buffer, std::size_t& offset,
                          std::size_t word_count,
                          std::vector<std::uint64_t>& words) {
  const auto tag = read_pod<std::uint8_t>(buffer, offset, "glvt words section");
  if (tag != static_cast<std::uint8_t>(SectionEncoding::kWords)) {
    throw StorageError("glvt words section: unexpected encoding tag");
  }
  const auto payload_bytes =
      read_pod<std::uint32_t>(buffer, offset, "glvt words section");
  if (payload_bytes != word_count * sizeof(std::uint64_t)) {
    throw StorageError("glvt words section: payload size mismatch");
  }
  if (buffer.size() - offset < payload_bytes) {
    throw StorageError("glvt words section: truncated payload");
  }
  const std::size_t start = words.size();
  words.resize(start + word_count);
  std::memcpy(words.data() + start, buffer.data() + offset, payload_bytes);
  offset += payload_bytes;
}

FileWriter::FileWriter(std::string path, const char* owner, Header header)
    : path_(std::move(path)), owner_(owner), header_(header) {
  if (header_.chunk_capacity == 0 || header_.chunk_capacity % 64 != 0) {
    throw InvalidArgument(std::string(owner_) +
                          ": chunk_samples must be a positive multiple of 64");
  }
}

void FileWriter::open(const std::vector<std::string>& names) {
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_) fail("cannot open spill file");

  std::string bytes;
  bytes.append(kMagic, sizeof kMagic);
  append_u32(bytes, kVersion);
  append_u64(bytes, header_.seed);
  append_f64(bytes, header_.sampling_period);
  append_u32(bytes, static_cast<std::uint32_t>(names.size()));
  append_u32(bytes, header_.chunk_capacity);
  append_u64(bytes, 0);  // sample_count, patched in finish()
  append_u64(bytes, 0);  // chunk_count, patched in finish()
  append_u64(bytes, 0);  // index_offset, patched in finish()
  append_u32(bytes, static_cast<std::uint32_t>(header_.content));
  append_f64(bytes, header_.threshold);
  for (const auto& name : names) {
    append_u32(bytes, static_cast<std::uint32_t>(name.size()));
    bytes.append(name);
  }
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file_) fail("header write failed");
  chunk_offsets_.clear();
  write_offset_ = bytes.size();
}

std::string& FileWriter::begin_chunk(std::uint32_t samples) {
  chunk_.clear();
  append_u32(chunk_, kChunkMagic);
  append_u32(chunk_, samples);
  return chunk_;
}

void FileWriter::write_chunk() {
  file_.write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  if (!file_) fail("chunk write failed");
  chunk_offsets_.push_back(write_offset_);
  write_offset_ += chunk_.size();

  static obs::Counter& bytes_written =
      obs::counter("store.spill.bytes_written");
  static obs::Counter& chunks_flushed =
      obs::counter("store.spill.chunks_flushed");
  bytes_written.add(chunk_.size());
  chunks_flushed.increment();
}

void FileWriter::finish(std::uint64_t sample_count) {
  std::string bytes;
  for (const std::uint64_t offset : chunk_offsets_) append_u64(bytes, offset);
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  bytes.clear();
  append_u64(bytes, sample_count);
  append_u64(bytes, static_cast<std::uint64_t>(chunk_offsets_.size()));
  file_.seekp(static_cast<std::streamoff>(kSampleCountOffset));
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.clear();
  append_u64(bytes, write_offset_);  // index_offset: the index follows the chunks
  file_.seekp(static_cast<std::streamoff>(kIndexOffsetOffset));
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  file_.close();  // flushes; a failed flush or close sets failbit
  if (!file_) fail("finalize failed");
}

void FileWriter::fail(const char* what) const {
  throw StorageError(std::string(owner_) + ": " + what + ": " + path_);
}

void write_planes(FileWriter& writer,
                  std::span<const logic::BitStream> planes) {
  const std::uint64_t samples = planes.empty() ? 0 : planes.front().size();
  for (const logic::BitStream& plane : planes) {
    if (plane.size() != samples) {
      throw InvalidArgument("write_planes: planes differ in length");
    }
  }
  // Chunk capacities are multiples of 64, so every chunk starts on a word.
  const std::uint64_t capacity = writer.header().chunk_capacity;
  for (std::uint64_t first = 0; first < samples; first += capacity) {
    const std::uint64_t take = std::min(capacity, samples - first);
    std::string& chunk = writer.begin_chunk(static_cast<std::uint32_t>(take));
    for (const logic::BitStream& plane : planes) {
      encode_words_section(plane.words().data() + first / 64,
                           static_cast<std::size_t>((take + 63) / 64), chunk);
    }
    writer.write_chunk();
  }
  writer.finish(samples);
}

}  // namespace glva::store::glvt
