// Tests for the store/ streaming trace I/O subsystem: the TraceSink
// contract, the .glvt spill format (round-trip fuzz, golden bytes, error
// paths), fused sampler→ADC digitization, and the acquisition seam held
// to the trace-path oracle under every archive spelling and job count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/adc.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/threshold_sweep.h"
#include "fuzz_util.h"
#include "props/check.h"
#include "props/parser.h"
#include "props/reference.h"
#include "sim/trace.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/glvt.h"
#include "store/memory_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "store/trace_sink.h"
#include "util/errors.h"
#include "util/stats.h"

namespace {

using namespace glva;
namespace fs = std::filesystem;

fs::path temp_path(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

/// Stream a materialized trace through any sink, row by row — the same
/// call sequence the TraceSampler produces.
void stream_trace(const sim::Trace& trace, store::TraceSink& sink) {
  sink.begin(trace.species_names());
  std::vector<double> row(trace.species_count());
  for (std::size_t k = 0; k < trace.sample_count(); ++k) {
    for (std::size_t s = 0; s < trace.species_count(); ++s) {
      row[s] = trace.series(s)[k];
    }
    sink.append(trace.times()[k], row);
  }
  sink.finish();
}

/// Deterministic synthetic trace mixing long constant runs (clamped-input
/// shape, RLE-friendly) with per-sample variation (raw sections).
sim::Trace synthetic_trace(std::size_t samples) {
  sim::Trace trace({"A", "B", "GFP"});
  std::vector<double> row(3);
  for (std::size_t k = 0; k < samples; ++k) {
    row[0] = (k / 10) % 2 == 0 ? 0.0 : 15.0;
    row[1] = static_cast<double>(k % 7);
    row[2] = k < samples / 2 ? 0.0 : 30.0;
    trace.append(static_cast<double>(k) * 0.5, row);
  }
  return trace;
}

void expect_traces_identical(const sim::Trace& a, const sim::Trace& b) {
  ASSERT_EQ(a.species_names(), b.species_names());
  ASSERT_EQ(a.sample_count(), b.sample_count());
  EXPECT_EQ(a.times(), b.times());
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    EXPECT_EQ(a.series(s), b.series(s)) << "species " << s;
  }
}

void expect_extractions_identical(const core::ExtractionResult& a,
                                  const core::ExtractionResult& b) {
  EXPECT_EQ(a.expression(), b.expression());
  EXPECT_EQ(a.fitness(), b.fitness());
  ASSERT_EQ(a.variation.records.size(), b.variation.records.size());
  for (std::size_t c = 0; c < a.variation.records.size(); ++c) {
    const auto& ra = a.variation.records[c];
    const auto& rb = b.variation.records[c];
    EXPECT_EQ(ra.case_count, rb.case_count) << "combination " << c;
    EXPECT_EQ(ra.high_count, rb.high_count) << "combination " << c;
    EXPECT_EQ(ra.variation_count, rb.variation_count) << "combination " << c;
    EXPECT_EQ(ra.fov_est, rb.fov_est) << "combination " << c;
  }
  ASSERT_EQ(a.construction.outcomes.size(), b.construction.outcomes.size());
  for (std::size_t c = 0; c < a.construction.outcomes.size(); ++c) {
    EXPECT_EQ(a.construction.outcomes[c].verdict,
              b.construction.outcomes[c].verdict)
        << "combination " << c;
  }
}

/// Overwrite a native-endian header field of a `.glvt` image.
void set_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}
void set_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

std::string read_file_bytes(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

/// The bit-plane tee the spill tests write: chunk 64, seed 9, period 0.5.
store::DigitizingSink::SpillOptions plane_spill(const fs::path& path) {
  store::DigitizingSink::SpillOptions spill;
  spill.path = path.string();
  spill.chunk_samples = 64;
  spill.seed = 9;
  spill.sampling_period = 0.5;
  return spill;
}

// --------------------------------------------------------------- SinkKind

TEST(SinkKind, NamesRoundTrip) {
  for (const auto kind : {store::SinkKind::kMemory, store::SinkKind::kSpill,
                          store::SinkKind::kDigitize}) {
    EXPECT_EQ(store::parse_sink_kind(store::sink_kind_name(kind)), kind);
  }
  EXPECT_EQ(store::parse_sink_kind("memory"), store::SinkKind::kMemory);
  EXPECT_THROW((void)store::parse_sink_kind("disk"), InvalidArgument);
}

// ------------------------------------------------------------- MemorySink

TEST(MemorySink, ReproducesStreamedTrace) {
  const sim::Trace trace = synthetic_trace(100);
  store::MemorySink sink;
  stream_trace(trace, sink);
  expect_traces_identical(trace, sink.trace());
}

// ------------------------------------------------------------ glvt codec

TEST(GlvtCodec, SectionRoundTripPreservesBitPatterns) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -3.25, 42.0};
  std::string buffer;
  store::glvt::encode_section(values, buffer);
  std::size_t offset = 0;
  std::vector<double> decoded;
  store::glvt::decode_section_into(buffer, offset, values.size(), decoded);
  EXPECT_EQ(offset, buffer.size());
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(),
                        values.size() * sizeof(double)),
            0)
      << "round trip must preserve NaN and signed-zero bit patterns";
}

TEST(GlvtCodec, ConstantRunsCompress) {
  const std::vector<double> constant(1000, 15.0);
  std::string buffer;
  store::glvt::encode_section(constant, buffer);
  // One RLE run: tag + length + (count, bits) — far below 8000 raw bytes.
  EXPECT_LT(buffer.size(), 64u);
  std::size_t offset = 0;
  std::vector<double> decoded;
  store::glvt::decode_section_into(buffer, offset, constant.size(), decoded);
  EXPECT_EQ(decoded, constant);
}

TEST(GlvtCodec, DecodeRejectsTruncationAndBadTags) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  std::string buffer;
  store::glvt::encode_section(values, buffer);

  std::string truncated = buffer.substr(0, buffer.size() - 3);
  std::size_t offset = 0;
  std::vector<double> decoded;
  EXPECT_THROW(store::glvt::decode_section_into(truncated, offset, 3, decoded),
               StorageError);

  std::string bad_tag = buffer;
  bad_tag[0] = 7;  // neither kRaw nor kRle
  offset = 0;
  EXPECT_THROW(store::glvt::decode_section_into(bad_tag, offset, 3, decoded),
               StorageError);
}

// ------------------------------------------------------- spill round trip

TEST(Spill, RoundTripReproducesTraceBitForBit) {
  const sim::Trace trace = synthetic_trace(150);
  const fs::path path = temp_path("roundtrip.glvt");

  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.seed = 123;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(trace, sink);
  EXPECT_EQ(sink.sample_count(), 150u);
  EXPECT_EQ(sink.chunk_count(), 3u);  // 64 + 64 + 22

  store::SpillReader reader(path.string());
  EXPECT_EQ(reader.species_names(), trace.species_names());
  EXPECT_EQ(reader.sample_count(), 150u);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.chunk_capacity(), 64u);
  EXPECT_EQ(reader.seed(), 123u);
  EXPECT_EQ(reader.sampling_period(), 0.5);

  expect_traces_identical(trace, reader.read_all());

  const store::SpillReader::Chunk last = reader.read_chunk(2);
  EXPECT_EQ(last.first_sample, 128u);
  EXPECT_EQ(last.times.size(), 22u);
}

TEST(Spill, RoundTripFuzzAcrossSizesAndChunkCapacities) {
  for (const std::size_t samples : {0u, 1u, 63u, 64u, 65u, 129u, 1000u}) {
    for (const std::uint32_t chunk : {64u, 128u, 4096u}) {
      const sim::Trace trace = synthetic_trace(samples);
      const fs::path path = temp_path("fuzz_" + std::to_string(samples) +
                                      "_" + std::to_string(chunk) + ".glvt");
      store::SpillSink::Options options;
      options.chunk_samples = chunk;
      store::SpillSink sink(path.string(), options);
      stream_trace(trace, sink);

      store::SpillReader reader(path.string());
      ASSERT_EQ(reader.sample_count(), samples);
      const std::size_t expected_chunks = (samples + chunk - 1) / chunk;
      ASSERT_EQ(reader.chunk_count(), expected_chunks);
      expect_traces_identical(trace, reader.read_all());
    }
  }
}

TEST(Spill, CsvStreamMatchesTraceToCsv) {
  const sim::Trace trace = synthetic_trace(150);
  const fs::path path = temp_path("csv.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  store::SpillSink sink(path.string(), options);
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  std::ostringstream csv;
  reader.write_csv(csv);
  EXPECT_EQ(csv.str(), trace.to_csv());
}

TEST(Spill, ChunkSizeMustBeWordMultiple) {
  EXPECT_THROW(store::SpillSink("x.glvt", {.chunk_samples = 0}),
               InvalidArgument);
  EXPECT_THROW(store::SpillSink("x.glvt", {.chunk_samples = 100}),
               InvalidArgument);
}

// ------------------------------------------------------ spill error paths

TEST(Spill, RejectsBadMagic) {
  const fs::path path = temp_path("bad_magic.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);

  std::string bytes = read_file_bytes(path);
  bytes[0] = 'X';
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsUnsupportedVersion) {
  const fs::path path = temp_path("bad_version.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);

  std::string bytes = read_file_bytes(path);
  bytes[4] = 99;  // version field, above kVersion
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  bytes[4] = 0;  // below kMinVersion
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsTruncatedFile) {
  const fs::path path = temp_path("truncated.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(200), sink);

  const std::string bytes = read_file_bytes(path);
  // Chop the chunk index off the end: the index no longer fits the file.
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 12);
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A file cut inside the header is rejected too.
  std::ofstream(path, std::ios::binary) << bytes.substr(0, 20);
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsOversizedHeaderFields) {
  const fs::path path = temp_path("oversized.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  const std::string bytes = read_file_bytes(path);

  // A chunk_count near 2^61 would wrap a multiplicative fit check and
  // escape as std::length_error from reserve(); it must stay StorageError.
  std::string huge_chunks = bytes;
  for (std::size_t b = 0; b < 8; ++b) {
    huge_chunks[store::glvt::kChunkCountOffset + b] =
        static_cast<char>(b == 7 ? 0x20 : 0x00);  // 2^61
  }
  std::ofstream(path, std::ios::binary) << huge_chunks;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A species-name length of 0xFFFFFFFF must be rejected before the
  // reader trusts it with an allocation.
  std::string huge_name = bytes;
  for (std::size_t b = 0; b < 4; ++b) {
    huge_name[store::glvt::kHeaderFixedBytesV2 + b] = '\xff';
  }
  std::ofstream(path, std::ios::binary) << huge_name;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // So must a species_count of 0xFFFFFFFF: the names cannot fit the bytes
  // before the index, and reserving them would throw std::bad_alloc.
  std::string huge_species = bytes;
  set_u32(huge_species, 24, 0xFFFFFFFFu);  // species_count
  std::ofstream(path, std::ios::binary) << huge_species;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A header count the chunks do not hold: 5 samples claimed, 10 stored.
  // The file opens (one chunk fits 5 samples), but the replay must refuse
  // it instead of returning 10 samples.
  std::string short_count = bytes;
  set_u64(short_count, store::glvt::kSampleCountOffset, 5);
  std::ofstream(path, std::ios::binary) << short_count;
  EXPECT_THROW((void)store::SpillReader{path.string()}.read_all(),
               StorageError);

  // A bit-plane file claiming 2^62 samples in three chunks: rejected at
  // open, before read_planes() would reserve 2^56 words per plane.
  const fs::path planes_path = temp_path("oversized_planes.glvt");
  {
    store::DigitizingSink planes({"A", "B", "GFP"}, 15.0,
                                 plane_spill(planes_path));
    stream_trace(synthetic_trace(150), planes);
  }
  const std::string plane_bytes = read_file_bytes(planes_path);
  std::string huge_samples = plane_bytes;
  set_u64(huge_samples, store::glvt::kSampleCountOffset, 1ull << 62);
  std::ofstream(planes_path, std::ios::binary) << huge_samples;
  EXPECT_THROW(store::SpillReader{planes_path.string()}, StorageError);

  // The same claim made consistent through a crafted chunk capacity: 1024
  // index entries of a 2^32 - 64 sample capacity fit 2^42 samples, all
  // word storage the file does not have. read_planes() must refuse before
  // it reserves anything.
  constexpr std::uint32_t kHugeCapacity = 0xFFFFFFC0u;
  constexpr std::uint64_t kChunks = 1024;
  std::string huge_capacity = plane_bytes;
  const std::uint64_t index_offset = [&] {
    std::uint64_t value;
    std::memcpy(&value, plane_bytes.data() + store::glvt::kIndexOffsetOffset,
                sizeof value);
    return value;
  }();
  huge_capacity.resize(static_cast<std::size_t>(index_offset));
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    store::glvt::append_u64(huge_capacity, index_offset - 1);
  }
  set_u32(huge_capacity, 28, kHugeCapacity);  // chunk_capacity
  set_u64(huge_capacity, store::glvt::kSampleCountOffset,
          (kChunks - 1) * kHugeCapacity + 1);
  set_u64(huge_capacity, store::glvt::kChunkCountOffset, kChunks);
  std::ofstream(planes_path, std::ios::binary) << huge_capacity;
  store::SpillReader crafted(planes_path.string());
  EXPECT_THROW((void)crafted.read_planes(), StorageError);
}

TEST(Spill, RejectsUnfinishedFile) {
  const fs::path path = temp_path("unfinished.glvt");
  {
    store::SpillSink sink(path.string(), {.chunk_samples = 64});
    sink.begin({"A", "B"});
    sink.append(0.0, {1.0, 2.0});
    // No finish(): the header keeps its index_offset == 0 sentinel.
  }
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsCorruptChunkMagic) {
  const fs::path path = temp_path("bad_chunk.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  const sim::Trace trace = synthetic_trace(10);
  stream_trace(trace, sink);

  // The first chunk starts right after the header: fixed prefix + one
  // (u32 length + bytes) record per species name.
  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const auto& name : trace.species_names()) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  std::string bytes = read_file_bytes(path);
  bytes[chunk_offset] = '?';
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());  // header and index still valid
  EXPECT_THROW((void)reader.read_chunk(0), StorageError);
}

TEST(Spill, MissingFileRejected) {
  EXPECT_THROW(store::SpillReader{"/nonexistent/dir/missing.glvt"},
               StorageError);
}

// ----------------------------------------------------------- golden bytes

TEST(Spill, GoldenFileBytesAreStable) {
  const fs::path path = temp_path("golden_generated.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.seed = 123;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(synthetic_trace(150), sink);

  const std::string generated = read_file_bytes(path);
  const std::string golden =
      read_file_bytes(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt");
  ASSERT_EQ(generated.size(), golden.size())
      << "regenerate tests/golden/spill_fixed.glvt if the .glvt format "
         "changed intentionally (and bump glvt::kVersion)";
  EXPECT_TRUE(generated == golden)
      << "byte-level .glvt drift — bump glvt::kVersion on format changes";
}

// ------------------------------------------------ v2 grid/words sections

TEST(GlvtCodec, UniformGridCollapsesToGridSection) {
  std::vector<double> times;
  for (std::size_t j = 0; j < 128; ++j) {
    times.push_back(static_cast<double>(64 + j) * 0.5);
  }
  std::string buffer;
  EXPECT_TRUE(store::glvt::encode_time_section(times, 64, 0.5, buffer));
  EXPECT_EQ(buffer.size(), 1u + 4u + 8u);  // tag + length + t0, per chunk

  std::vector<double> decoded;
  std::size_t offset = 0;
  store::glvt::decode_time_section_into(buffer, offset, times.size(), 64, 0.5,
                                        decoded);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(decoded, times);
}

TEST(GlvtCodec, OffGridTimesFallBackToSectionEncoding) {
  const std::vector<double> times = {0.0, 0.5, 1.01, 1.5};  // one off-grid
  std::string buffer;
  EXPECT_FALSE(store::glvt::encode_time_section(times, 0, 0.5, buffer));

  std::vector<double> decoded;
  std::size_t offset = 0;
  store::glvt::decode_time_section_into(buffer, offset, times.size(), 0, 0.5,
                                        decoded);
  EXPECT_EQ(decoded, times);
}

TEST(GlvtCodec, GridDecodeRejectsMismatchedStartTime) {
  std::vector<double> times;
  for (std::size_t j = 0; j < 64; ++j) {
    times.push_back(static_cast<double>(64 + j) * 0.5);
  }
  std::string buffer;
  ASSERT_TRUE(store::glvt::encode_time_section(times, 64, 0.5, buffer));

  // Decoding the same bytes as if the chunk sat elsewhere in the file must
  // fail the stored-t0 cross-check, not silently relabel the samples.
  std::vector<double> decoded;
  std::size_t offset = 0;
  EXPECT_THROW(store::glvt::decode_time_section_into(buffer, offset, 64, 128,
                                                     0.5, decoded),
               StorageError);

  // A truncated grid payload is rejected too.
  const std::string truncated = buffer.substr(0, buffer.size() - 4);
  offset = 0;
  EXPECT_THROW(store::glvt::decode_time_section_into(truncated, offset, 64,
                                                     64, 0.5, decoded),
               StorageError);
}

TEST(GlvtCodec, WordsSectionRoundTripAndErrors) {
  const std::vector<std::uint64_t> words = {0x0123456789ABCDEFull, 0xFFull};
  std::string buffer;
  store::glvt::encode_words_section(words.data(), words.size(), buffer);

  std::vector<std::uint64_t> decoded;
  std::size_t offset = 0;
  store::glvt::decode_words_section(buffer, offset, words.size(), decoded);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(decoded, words);

  // Payload size disagreeing with the expected word count.
  offset = 0;
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(
      store::glvt::decode_words_section(buffer, offset, words.size() + 1,
                                        scratch),
      StorageError);

  // A non-kWords tag where a bit-plane section is required.
  std::string bad_tag = buffer;
  bad_tag[0] = 0;  // kRaw
  offset = 0;
  EXPECT_THROW(
      store::glvt::decode_words_section(bad_tag, offset, words.size(),
                                        scratch),
      StorageError);

  // Truncation inside the payload.
  const std::string truncated = buffer.substr(0, buffer.size() - 1);
  offset = 0;
  EXPECT_THROW(
      store::glvt::decode_words_section(truncated, offset, words.size(),
                                        scratch),
      StorageError);
}

// ------------------------------------------------ v1 backward compatibility

TEST(SpillV1, GoldenV1FixtureStillDecodesBitForBit) {
  const fs::path v1_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt";
  store::SpillReader reader(v1_path.string());
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_EQ(reader.content_kind(), store::glvt::ContentKind::kAnalog);
  EXPECT_EQ(reader.threshold(), 0.0);
  EXPECT_EQ(reader.sample_count(), 150u);
  expect_traces_identical(synthetic_trace(150), reader.read_all());
}

TEST(SpillV1, V1ToV2UpgradeReplayMatchesV2Golden) {
  // Replaying the v1 fixture through a v2 sink is the upgrade path; its
  // bytes must equal the freshly written v2 golden exactly (same samples,
  // same parameters — only the container version differs).
  const fs::path v1_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt";
  store::SpillReader v1(v1_path.string());

  const fs::path upgraded = temp_path("upgraded_v2.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = v1.chunk_capacity();
  options.seed = v1.seed();
  options.sampling_period = v1.sampling_period();
  store::SpillSink sink(upgraded.string(), options);
  v1.replay(sink);

  EXPECT_TRUE(read_file_bytes(upgraded) ==
              read_file_bytes(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt"));
}

TEST(SpillV1, V2GoldenIsGridCompressed) {
  const fs::path v2_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt";
  store::SpillReader reader(v2_path.string());
  EXPECT_EQ(reader.version(), store::glvt::kVersion);
  // The whole point of kGrid: the same trace, meaningfully smaller (the
  // time column was most of the v1 file).
  EXPECT_LT(fs::file_size(v2_path),
            fs::file_size(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt"));
  expect_traces_identical(synthetic_trace(150), reader.read_all());
}

// ---------------------------------------------------- v2 file error paths

TEST(SpillV2, RejectsCorruptGridStartTime) {
  // Write a genuinely grid-compressed v2 file (times on the sink's
  // sampling grid), then flip a byte of the first chunk's stored t0: the
  // header and index stay valid, the chunk decode must throw.
  const fs::path path = temp_path("bad_grid.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(synthetic_trace(100), sink);

  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const std::string name : {"A", "B", "GFP"}) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  // Chunk layout: magic u32, samples u32, then the time section's
  // tag u8 + payload length u32 + t0 f64.
  const std::size_t t0_offset = chunk_offset + 4 + 4 + 1 + 4;
  std::string bytes = read_file_bytes(path);
  ASSERT_EQ(static_cast<store::glvt::SectionEncoding>(
                bytes[chunk_offset + 8]),
            store::glvt::SectionEncoding::kGrid);
  bytes[t0_offset + 3] ^= 0x40;
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_chunk(0), StorageError);
}

TEST(SpillV2, RejectsBadContentKindAndThresholdFields) {
  const fs::path path = temp_path("bad_content.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  const std::string bytes = read_file_bytes(path);

  // An unknown content kind (the u32 right after index_offset).
  std::string bad_kind = bytes;
  bad_kind[store::glvt::kIndexOffsetOffset + 8] = 7;
  std::ofstream(path, std::ios::binary) << bad_kind;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A kBits file whose threshold field is zero is self-contradictory.
  std::string bits_no_threshold = bytes;
  bits_no_threshold[store::glvt::kIndexOffsetOffset + 8] = 1;  // kBits
  std::ofstream(path, std::ios::binary) << bits_no_threshold;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

// ------------------------------------------------------- bit-plane spills

TEST(BitPlaneSpill, RoundTripMatchesInMemoryPlanes) {
  const sim::Trace trace = synthetic_trace(300);
  const fs::path path = temp_path("planes.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  EXPECT_EQ(sink.spill_path(), path.string());
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  EXPECT_EQ(reader.version(), store::glvt::kVersion);
  EXPECT_EQ(reader.content_kind(), store::glvt::ContentKind::kBits);
  EXPECT_EQ(reader.threshold(), 15.0);
  EXPECT_EQ(reader.species_names(),
            (std::vector<std::string>{"A", "B", "GFP"}));
  EXPECT_EQ(reader.sample_count(), 300u);

  const std::vector<logic::BitStream> planes = reader.read_planes();
  ASSERT_EQ(planes.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(planes[p], sink.planes()[p]) << "plane " << p;
  }

  // The analog APIs refuse a bit-plane file (and name the mismatch).
  EXPECT_THROW((void)reader.read_all(), StorageError);
  store::MemorySink memory;
  EXPECT_THROW(reader.replay(memory), StorageError);
  std::ostringstream csv;
  EXPECT_THROW(reader.write_csv(csv), StorageError);
}

TEST(BitPlaneSpill, RoundTripFuzzAcrossSizes) {
  // Ragged tails, exact word/chunk boundaries, empty stream.
  for (const std::size_t samples : {0u, 1u, 63u, 64u, 65u, 129u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    const fs::path path =
        temp_path("planes_fuzz_" + std::to_string(samples) + ".glvt");
    store::DigitizingSink sink({"GFP", "A"}, 10.0, plane_spill(path));
    stream_trace(trace, sink);

    store::SpillReader reader(path.string());
    ASSERT_EQ(reader.sample_count(), samples);
    const std::vector<logic::BitStream> planes = reader.read_planes();
    ASSERT_EQ(planes.size(), 2u);
    EXPECT_EQ(planes[0], sink.planes()[0]) << samples << " samples";
    EXPECT_EQ(planes[1], sink.planes()[1]) << samples << " samples";
  }
}

TEST(BitPlaneSpill, LoadDigitizedMatchesTakeDigitized) {
  const sim::Trace trace = synthetic_trace(500);
  const fs::path path = temp_path("planes_load.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  stream_trace(trace, sink);
  const core::PackedDigitalData direct = core::take_digitized(sink, 2);

  store::SpillReader reader(path.string());
  const core::PackedDigitalData loaded = core::load_digitized(reader, 2, 15.0);
  ASSERT_EQ(loaded.inputs.size(), direct.inputs.size());
  EXPECT_EQ(loaded.inputs[0], direct.inputs[0]);
  EXPECT_EQ(loaded.inputs[1], direct.inputs[1]);
  EXPECT_EQ(loaded.output, direct.output);

  // A bit-exact threshold match is required — planes digitized at 15.0
  // must not be passed off as planes for any other threshold.
  EXPECT_THROW((void)core::load_digitized(reader, 2, 15.5), InvalidArgument);
  // Plane count must cover inputs + output.
  EXPECT_THROW((void)core::load_digitized(reader, 3, 15.0), InvalidArgument);
}

TEST(BitPlaneSpill, ReadPlanesRejectsAnalogFile) {
  const fs::path path = temp_path("analog_not_planes.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_planes(), StorageError);
}

TEST(BitPlaneSpill, GoldenFileBytesAreStable) {
  const fs::path path = temp_path("planes_golden_generated.glvt");
  store::DigitizingSink::SpillOptions spill;
  spill.path = path.string();
  spill.chunk_samples = 64;
  spill.seed = 123;
  spill.sampling_period = 0.5;
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, spill);
  stream_trace(synthetic_trace(150), sink);

  const std::string generated = read_file_bytes(path);
  const std::string golden =
      read_file_bytes(fs::path(GLVA_GOLDEN_DIR) / "planes_fixed.glvt");
  ASSERT_EQ(generated.size(), golden.size())
      << "regenerate tests/golden/planes_fixed.glvt if the .glvt format "
         "changed intentionally (and bump glvt::kVersion)";
  EXPECT_TRUE(generated == golden)
      << "byte-level bit-plane .glvt drift — bump glvt::kVersion on format "
         "changes";
}

TEST(BitPlaneSpill, RejectsCorruptWordsSection) {
  const fs::path path = temp_path("bad_words.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  stream_trace(synthetic_trace(100), sink);

  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const std::string name : {"A", "B", "GFP"}) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  std::string bytes = read_file_bytes(path);
  ASSERT_EQ(static_cast<store::glvt::SectionEncoding>(
                bytes[chunk_offset + 8]),
            store::glvt::SectionEncoding::kWords);
  bytes[chunk_offset + 8] = 0;  // kRaw where kWords is required
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_planes(), StorageError);
}

// ------------------------------------------- archive write-failure contract

/// The two sinks that write a `.glvt` archive, by name, each opened on the
/// given path.
struct ArchiveSinkCase {
  const char* name;
  std::unique_ptr<store::TraceSink> (*make)(const std::string& path);
};

const ArchiveSinkCase kArchiveSinks[] = {
    {"SpillSink",
     [](const std::string& path) -> std::unique_ptr<store::TraceSink> {
       return std::make_unique<store::SpillSink>(
           path, store::SpillSink::Options{.chunk_samples = 64});
     }},
    {"DigitizingSink",
     [](const std::string& path) -> std::unique_ptr<store::TraceSink> {
       return std::make_unique<store::DigitizingSink>(
           std::vector<std::string>{"A", "B", "GFP"}, 15.0,
           plane_spill(path));
     }},
};

/// Run `deliver` and return the StorageError message it raised ("" when
/// it raised none).
template <typename Deliver>
std::string storage_error_of(Deliver&& deliver) {
  try {
    deliver();
  } catch (const StorageError& error) {
    return error.what();
  }
  return "";
}

TEST(ArchiveSinks, WriteFailuresAndAbandonedFilesFollowOneContract) {
  for (const ArchiveSinkCase& c : kArchiveSinks) {
    SCOPED_TRACE(c.name);
    // /dev/full accepts the open and fails every flush with ENOSPC: the
    // failure must surface as StorageError naming the path, from a
    // delivery or from finish, never as a silent truncation.
    if (fs::exists("/dev/full")) {
      const std::string rows = storage_error_of([&] {
        const auto sink = c.make("/dev/full");
        stream_trace(synthetic_trace(20000), *sink);
      });
      EXPECT_NE(rows.find("/dev/full"), std::string::npos) << rows;
      // The same for holds, which is how the sampler delivers.
      const std::string holds = storage_error_of([&] {
        const auto sink = c.make("/dev/full");
        sink->begin({"A", "B", "GFP"});
        const std::vector<double> times(64, 0.0);
        for (int hold = 0; hold < 400; ++hold) {
          sink->append_hold(times, {1.0, 20.0, 30.0});
        }
        sink->finish();
      });
      EXPECT_NE(holds.find("/dev/full"), std::string::npos) << holds;
    }

    // A sink destroyed without finish() (exception unwinding) leaves the
    // index_offset == 0 sentinel, which the reader rejects.
    const fs::path path = temp_path(std::string("abandoned_") + c.name +
                                    ".glvt");
    {
      const auto sink = c.make(path.string());
      sink->begin({"A", "B", "GFP"});
      for (std::size_t k = 0; k < 500; ++k) {
        sink->append(static_cast<double>(k), {1.0, 20.0, 30.0});
      }
    }
    EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
  }
}

// -------------------------------------------------------- DigitizingSink

TEST(DigitizingSink, MatchesDigitizePackedOverMaterializedTrace) {
  const sim::Trace trace = synthetic_trace(500);
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0);
  stream_trace(trace, sink);
  EXPECT_EQ(sink.sample_count(), 500u);

  const core::PackedDigitalData expected =
      core::digitize_packed(trace, {"A", "B"}, "GFP", 15.0);
  EXPECT_EQ(sink.planes()[0], expected.inputs[0]);
  EXPECT_EQ(sink.planes()[1], expected.inputs[1]);
  EXPECT_EQ(sink.planes()[2], expected.output);
}

TEST(DigitizingSink, ReplayFromSpillMatchesDirectDigitization) {
  const sim::Trace trace = synthetic_trace(300);
  const fs::path path = temp_path("replay.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  store::DigitizingSink digitizer({"GFP", "A"}, 10.0);
  reader.replay(digitizer);

  EXPECT_EQ(digitizer.planes()[0],
            core::adc_packed(trace.series("GFP"), 10.0));
  EXPECT_EQ(digitizer.planes()[1], core::adc_packed(trace.series("A"), 10.0));
}

TEST(DigitizingSink, ValidatesArguments) {
  EXPECT_THROW(store::DigitizingSink({}, 15.0), InvalidArgument);
  EXPECT_THROW(store::DigitizingSink({"A"}, 0.0), InvalidArgument);
  store::DigitizingSink sink({"missing"}, 15.0);
  EXPECT_THROW(sink.begin({"A", "B"}), InvalidArgument);
  store::DigitizingSink ok({"A"}, 15.0);
  ok.begin({"A"});
  EXPECT_THROW((void)ok.take_plane(1), InvalidArgument);
}

// ------------------------------------------------- block-path equivalence

/// Deliver rows [offset, offset + count) of a materialized trace as one
/// column-wise block.
void stream_block(const sim::Trace& trace, store::TraceSink& sink,
                  std::size_t offset, std::size_t count) {
  std::vector<std::span<const double>> columns(trace.species_count());
  for (std::size_t s = 0; s < trace.species_count(); ++s) {
    columns[s] = std::span<const double>(trace.series(s)).subspan(offset, count);
  }
  sink.append_block(
      std::span<const double>(trace.times()).subspan(offset, count), columns);
}

/// Stream a trace through `sink` as a sequence of blocks whose sizes cycle
/// through `block_sizes` (the tail block is whatever remains).
void stream_trace_blocks(const sim::Trace& trace, store::TraceSink& sink,
                         const std::vector<std::size_t>& block_sizes) {
  sink.begin(trace.species_names());
  std::size_t offset = 0;
  std::size_t next = 0;
  while (offset < trace.sample_count()) {
    const std::size_t count = std::min(block_sizes[next % block_sizes.size()],
                                       trace.sample_count() - offset);
    stream_block(trace, sink, offset, count);
    offset += count;
    ++next;
  }
  sink.finish();
}

/// A sink implementing only the row contract: append_block must fall back
/// to the base class's row-wise loop.
class RowOnlySink final : public store::TraceSink {
public:
  void begin(const std::vector<std::string>& species_names) override {
    trace_ = sim::Trace(species_names);
  }
  void append(double time, const std::vector<double>& values) override {
    trace_.append(time, values);
  }
  void finish() override {}
  [[nodiscard]] const sim::Trace& trace() const noexcept { return trace_; }

private:
  sim::Trace trace_;
};

// The block sizes the fuzz slices streams into (single rows, one-off-word
// boundaries, exact words, a whole chunk, a ragged cycle) — shared with
// the SIMD conformance suite through tests/fuzz_util.h.
const std::vector<std::vector<std::size_t>>& kBlockSlicings =
    testutil::block_slicings();

TEST(AppendBlock, MemorySinkMatchesRowPathAcrossBlockSizes) {
  for (const std::size_t samples : {1u, 150u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    store::MemorySink rows;
    stream_trace(trace, rows);
    for (const auto& slicing : kBlockSlicings) {
      store::MemorySink blocks;
      stream_trace_blocks(trace, blocks, slicing);
      expect_traces_identical(rows.trace(), blocks.trace());
    }
  }
}

TEST(AppendBlock, SpillSinkWritesIdenticalBytesAcrossBlockSizes) {
  for (const std::uint32_t chunk : {64u, 4096u}) {
    const sim::Trace trace = synthetic_trace(333);
    store::SpillSink::Options options;
    options.chunk_samples = chunk;
    const fs::path row_path = temp_path("block_rows.glvt");
    store::SpillSink row_sink(row_path.string(), options);
    stream_trace(trace, row_sink);
    const std::string row_bytes = read_file_bytes(row_path);

    for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
      const fs::path block_path =
          temp_path("block_" + std::to_string(chunk) + "_" +
                    std::to_string(v) + ".glvt");
      store::SpillSink block_sink(block_path.string(), options);
      stream_trace_blocks(trace, block_sink, kBlockSlicings[v]);
      EXPECT_EQ(read_file_bytes(block_path), row_bytes)
          << "chunk " << chunk << ", slicing " << v;
    }
  }
}

TEST(AppendBlock, BitPlaneSpillWritesIdenticalBytesAcrossBlockSizes) {
  const sim::Trace trace = synthetic_trace(333);
  const fs::path row_path = temp_path("planes_rows.glvt");
  store::DigitizingSink rows({"A", "GFP"}, 15.0, plane_spill(row_path));
  stream_trace(trace, rows);
  const std::string row_bytes = read_file_bytes(row_path);

  for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
    const fs::path block_path =
        temp_path("planes_blocks_" + std::to_string(v) + ".glvt");
    store::DigitizingSink blocks({"A", "GFP"}, 15.0,
                                 plane_spill(block_path));
    stream_trace_blocks(trace, blocks, kBlockSlicings[v]);
    EXPECT_EQ(read_file_bytes(block_path), row_bytes) << "slicing " << v;
  }
}

TEST(AppendBlock, DigitizingSinkMatchesRowPathAcrossBlockSizes) {
  for (const std::size_t samples : {1u, 63u, 64u, 65u, 500u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    store::DigitizingSink rows({"A", "B", "GFP"}, 15.0);
    stream_trace(trace, rows);
    for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
      store::DigitizingSink blocks({"A", "B", "GFP"}, 15.0);
      stream_trace_blocks(trace, blocks, kBlockSlicings[v]);
      ASSERT_EQ(blocks.sample_count(), rows.sample_count());
      for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_EQ(blocks.planes()[p], rows.planes()[p])
            << "samples " << samples << ", slicing " << v << ", plane " << p;
      }
    }
  }
}

TEST(AppendBlock, RowAndBlockDeliveriesInterleave) {
  const sim::Trace trace = synthetic_trace(200);
  store::DigitizingSink reference({"GFP"}, 15.0);
  stream_trace(trace, reference);

  store::DigitizingSink mixed({"GFP"}, 15.0);
  mixed.begin(trace.species_names());
  std::vector<double> row(trace.species_count());
  std::size_t offset = 0;
  // 10 single rows, then a 70-row block, then rows to 150, a tail block.
  const auto append_rows = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k, ++offset) {
      for (std::size_t s = 0; s < row.size(); ++s) {
        row[s] = trace.series(s)[offset];
      }
      mixed.append(trace.times()[offset], row);
    }
  };
  append_rows(10);
  stream_block(trace, mixed, offset, 70);
  offset += 70;
  append_rows(70);
  stream_block(trace, mixed, offset, trace.sample_count() - offset);
  mixed.finish();

  EXPECT_EQ(mixed.planes()[0], reference.planes()[0]);
}

TEST(AppendBlock, BaseClassFallbackDeliversRowwise) {
  const sim::Trace trace = synthetic_trace(150);
  RowOnlySink sink;
  stream_trace_blocks(trace, sink, {64, 3});
  expect_traces_identical(trace, sink.trace());
}

TEST(AppendBlock, RejectsColumnsShorterThanTheTimeColumn) {
  const sim::Trace trace = synthetic_trace(10);
  const std::span<const double> times(trace.times());
  std::vector<std::span<const double>> ragged(trace.species_count());
  for (std::size_t s = 0; s < trace.species_count(); ++s) {
    ragged[s] = std::span<const double>(trace.series(s))
                    .subspan(0, s == 1 ? 9 : 10);  // one short column
  }

  RowOnlySink base_fallback;
  base_fallback.begin(trace.species_names());
  EXPECT_THROW(base_fallback.append_block(times, ragged), InvalidArgument);

  store::MemorySink memory;
  memory.begin(trace.species_names());
  EXPECT_THROW(memory.append_block(times, ragged), InvalidArgument);

  store::DigitizingSink digitize({"B"}, 15.0);
  digitize.begin(trace.species_names());
  EXPECT_THROW(digitize.append_block(times, ragged), InvalidArgument);
}

// -------------------------------------------------- hold-path equivalence

/// One zero-order hold: `length` consecutive grid samples carrying one
/// value row.
struct HoldRun {
  std::size_t length;
  std::vector<double> values;
};

constexpr double kHoldThreshold = 15.0;
constexpr double kHoldPeriod = 0.25;  // sample k sits at k * kHoldPeriod

/// The hold fuzz's stream: every length in {0, 1, 63, 64, 65, 4095, 4096,
/// 4097} starts at every word offset (a pad run moves the stream there
/// first), so holds end mid-word, on word and chunk boundaries, and cross
/// them. Rows mix NaN, -0.0, +inf and the threshold itself with ordinary
/// values on either side of it.
std::vector<HoldRun> hold_runs(std::uint64_t seed) {
  sim::Rng rng(seed);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             kHoldThreshold,
                             std::nextafter(kHoldThreshold, 0.0),
                             0.0,
                             30.0};
  const auto random_row = [&] {
    std::vector<double> row(3);
    for (double& v : row) v = specials[rng.below(std::size(specials))];
    return row;
  };
  std::vector<HoldRun> runs;
  std::size_t position = 0;
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (const std::size_t length : {0u, 1u, 63u, 64u, 65u, 4095u, 4096u,
                                     4097u}) {
      const std::size_t pad = (offset + 64 - position % 64) % 64;
      if (pad > 0) runs.push_back({pad, random_row()});
      runs.push_back({length, random_row()});
      position += pad + length;
    }
  }
  return runs;
}

/// The three ways a sink can receive samples.
enum class SinkCall { kHold, kBlock, kRows };

/// How a hold fuzz delivers its runs: every run as one block (the
/// reference: each sink's block path shares no code with its hold path),
/// every sample as a row, every run as one hold, or each run cut at random
/// into pieces (some empty) that go out through random calls.
enum class HoldDelivery { kBlocks, kRows, kWholeHolds, kMixed };

void stream_holds(const std::vector<HoldRun>& runs, store::TraceSink& sink,
                  HoldDelivery delivery, std::uint64_t seed) {
  sim::Rng rng(seed);
  sink.begin({"A", "B", "GFP"});
  std::size_t position = 0;
  std::vector<double> times;
  // The next n samples, all carrying run.values, through one call kind.
  const auto deliver = [&](const HoldRun& run, std::size_t n, SinkCall call) {
    times.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      times[i] = static_cast<double>(position + i) * kHoldPeriod;
    }
    switch (call) {
      case SinkCall::kHold:
        sink.append_hold(times, run.values);
        break;
      case SinkCall::kBlock: {
        std::vector<std::vector<double>> columns;
        std::vector<std::span<const double>> spans;
        for (const double v : run.values) columns.emplace_back(n, v);
        for (const auto& column : columns) spans.emplace_back(column);
        sink.append_block(times, spans);
        break;
      }
      case SinkCall::kRows:
        for (const double time : times) sink.append(time, run.values);
        break;
    }
    position += n;
  };
  for (const HoldRun& run : runs) {
    switch (delivery) {
      case HoldDelivery::kBlocks:
        deliver(run, run.length, SinkCall::kBlock);
        break;
      case HoldDelivery::kRows:
        deliver(run, run.length, SinkCall::kRows);
        break;
      case HoldDelivery::kWholeHolds:
        deliver(run, run.length, SinkCall::kHold);
        break;
      case HoldDelivery::kMixed:
        for (std::size_t left = run.length; left > 0;) {
          const std::size_t n = rng.below(3) == 0 ? left : rng.below(left + 1);
          deliver(run, n, static_cast<SinkCall>(rng.below(3)));
          left -= n;
        }
        break;
    }
  }
  sink.finish();
}

void expect_traces_bitwise_identical(const sim::Trace& a, const sim::Trace& b) {
  ASSERT_EQ(a.species_names(), b.species_names());
  ASSERT_EQ(a.sample_count(), b.sample_count());
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(a.times(), b.times()));
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    EXPECT_TRUE(same_bits(a.series(s), b.series(s))) << "species " << s;
  }
}

constexpr HoldDelivery kHoldDeliveries[] = {
    HoldDelivery::kRows, HoldDelivery::kWholeHolds, HoldDelivery::kMixed};

TEST(AppendHold, MemorySinkBaseLoopMatchesBlocks) {
  const std::vector<HoldRun> runs = hold_runs(71);
  store::MemorySink blocks;
  stream_holds(runs, blocks, HoldDelivery::kBlocks, 0);
  for (const HoldDelivery delivery : kHoldDeliveries) {
    store::MemorySink holds;
    stream_holds(runs, holds, delivery, 72);
    expect_traces_bitwise_identical(blocks.trace(), holds.trace());
  }
}

TEST(AppendHold, SpillSinkWritesIdenticalBytes) {
  const std::vector<HoldRun> runs = hold_runs(73);
  store::SpillSink::Options options;
  options.sampling_period = kHoldPeriod;
  const fs::path block_path = temp_path("hold_blocks.glvt");
  {
    store::SpillSink sink(block_path.string(), options);
    stream_holds(runs, sink, HoldDelivery::kBlocks, 0);
  }
  const std::string block_bytes = read_file_bytes(block_path);
  for (const HoldDelivery delivery : kHoldDeliveries) {
    const std::string tag = std::to_string(static_cast<int>(delivery));
    const fs::path path = temp_path("hold_" + tag + ".glvt");
    {
      store::SpillSink sink(path.string(), options);
      stream_holds(runs, sink, delivery, 74);
    }
    EXPECT_TRUE(read_file_bytes(path) == block_bytes) << "delivery " << tag;
  }
}

TEST(AppendHold, DigitizingSinkMatchesBlocksInPlanesAndArchiveBytes) {
  const std::vector<HoldRun> runs = hold_runs(75);
  const std::vector<std::string> tracked = {"A", "B", "GFP", "A"};
  // The sink-free oracle: the ADC over the materialized trace.
  store::MemorySink memory;
  stream_holds(runs, memory, HoldDelivery::kBlocks, 0);
  const core::PackedDigitalData expected =
      core::digitize_packed(memory.trace(), {"A", "B"}, "GFP", kHoldThreshold);
  const fs::path block_path = temp_path("hold_planes_blocks.glvt");
  store::DigitizingSink blocks(tracked, kHoldThreshold,
                               plane_spill(block_path));
  stream_holds(runs, blocks, HoldDelivery::kBlocks, 0);
  const std::string block_bytes = read_file_bytes(block_path);
  for (const HoldDelivery delivery : kHoldDeliveries) {
    const std::string tag = std::to_string(static_cast<int>(delivery));
    const fs::path path = temp_path("hold_planes_" + tag + ".glvt");
    store::DigitizingSink holds(tracked, kHoldThreshold, plane_spill(path));
    stream_holds(runs, holds, delivery, 76);
    ASSERT_EQ(holds.sample_count(), memory.trace().sample_count());
    EXPECT_EQ(holds.planes()[0], expected.inputs[0]) << "delivery " << tag;
    EXPECT_EQ(holds.planes()[1], expected.inputs[1]) << "delivery " << tag;
    EXPECT_EQ(holds.planes()[2], expected.output) << "delivery " << tag;
    EXPECT_EQ(holds.planes()[3], expected.inputs[0]) << "delivery " << tag;
    EXPECT_TRUE(read_file_bytes(path) == block_bytes) << "delivery " << tag;
  }
}

TEST(AppendHold, RejectsRowsNarrowerThanTheSinkNeeds) {
  const std::vector<double> times = {0.0, 1.0};
  const std::vector<double> narrow = {1.0};
  store::SpillSink spill(temp_path("hold_narrow.glvt").string());
  spill.begin({"A", "B"});
  EXPECT_THROW(spill.append_hold(times, narrow), InvalidArgument);
  store::DigitizingSink digitize({"B"}, kHoldThreshold);
  digitize.begin({"A", "B"});
  EXPECT_THROW(digitize.append_hold(times, narrow), InvalidArgument);
}

// ------------------------------------------------------------ chunk replay

TEST(Replay, BlockReplayMatchesRowReplay) {
  const sim::Trace trace = synthetic_trace(500);
  const fs::path path = temp_path("replay_block.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(trace, sink);
  store::SpillReader reader(path.string());

  // RowOnlySink receives each replayed block through the base class's
  // row loop; MemorySink takes it whole.
  store::MemorySink by_blocks;
  reader.replay(by_blocks);
  RowOnlySink by_rows;
  reader.replay(by_rows);
  expect_traces_identical(by_rows.trace(), by_blocks.trace());
  expect_traces_identical(trace, by_blocks.trace());

  store::DigitizingSink replayed({"GFP", "A"}, 10.0);
  reader.replay(replayed);
  store::DigitizingSink streamed({"GFP", "A"}, 10.0);
  stream_trace(trace, streamed);
  EXPECT_EQ(replayed.sample_count(), streamed.sample_count());
  EXPECT_EQ(replayed.planes()[0], streamed.planes()[0]);
  EXPECT_EQ(replayed.planes()[1], streamed.planes()[1]);
}

TEST(Replay, ChunkReplayOfGoldenFileIsByteIdentical) {
  // Replaying the checked-in golden spill chunk-by-chunk into a fresh
  // SpillSink with the golden's own parameters must reproduce the file
  // byte for byte — blocks cross the whole write path (chunking, RLE/raw
  // section choice, index, header patch) without perturbing a bit.
  const fs::path golden_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt";
  store::SpillReader reader(golden_path.string());

  const fs::path replayed_path = temp_path("golden_replayed.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = reader.chunk_capacity();
  options.seed = reader.seed();
  options.sampling_period = reader.sampling_period();
  store::SpillSink sink(replayed_path.string(), options);
  reader.replay(sink);

  EXPECT_TRUE(read_file_bytes(replayed_path) ==
              read_file_bytes(golden_path))
      << "block-path chunk replay drifted from the golden .glvt bytes";
}

// ------------------------------------- acquisition vs the trace-path oracle

/// One spelling of an experiment's acquisition: what --sink archives and
/// the worker count.
struct AcquisitionCase {
  store::SinkKind sink;
  std::size_t jobs;
};

std::string case_label(const AcquisitionCase& c) {
  return std::string(store::sink_kind_name(c.sink)) + "-j" +
         std::to_string(c.jobs);
}

std::size_t glvt_count(const fs::path& dir) {
  std::size_t files = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files += entry.path().extension() == ".glvt" ? 1 : 0;
  }
  return files;
}

/// The check oracle: the reference evaluator over the digitized trace,
/// reduced to the per-replicate totals props::run_check reports.
void expect_check_matches_trace(const props::CheckReplicate& actual,
                                const sim::Trace& trace,
                                const circuits::CircuitSpec& spec,
                                double threshold,
                                const std::vector<props::PropertyPtr>& properties) {
  const core::DigitalData data =
      core::digitize(trace, spec.input_ids, spec.output_id, threshold);
  props::NamedPlanes planes;
  planes.names = core::plane_names(spec);
  planes.planes = data.inputs;
  planes.planes.push_back(data.output);
  EXPECT_EQ(actual.sample_count, data.sample_count());
  ASSERT_EQ(actual.properties.size(), properties.size());
  for (std::size_t i = 0; i < properties.size(); ++i) {
    const std::vector<bool> verdict =
        props::evaluate_reference(*properties[i], planes);
    const auto violation = static_cast<std::size_t>(
        std::find(verdict.begin(), verdict.end(), false) - verdict.begin());
    EXPECT_EQ(actual.properties[i].samples, verdict.size());
    EXPECT_EQ(actual.properties[i].satisfied,
              static_cast<std::size_t>(
                  std::count(verdict.begin(), verdict.end(), true)));
    EXPECT_EQ(actual.properties[i].first_violation,
              violation == verdict.size() ? props::kNoViolation : violation);
  }
}

TEST(Acquisition, EverySpellingMatchesTheTracePathOracle) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const std::vector<props::PropertyPtr> properties = {
      props::parse_property("G (A -> F[0,30] GFP)"),
      props::parse_property("noglitch[3] GFP")};
  constexpr std::size_t kReplicates = 2;

  std::vector<AcquisitionCase> cases;
  for (const auto sink : {store::SinkKind::kMemory, store::SinkKind::kSpill,
                          store::SinkKind::kDigitize}) {
    for (const std::size_t jobs : {1u, 4u}) cases.push_back({sink, jobs});
  }

  for (const AcquisitionCase& c : cases) {
    SCOPED_TRACE(case_label(c));
    core::ExperimentConfig config;
    config.total_time = 400.0;
    config.seed = 11;
    config.sink = c.sink;
    config.spill_dir = temp_path("acquire_" + case_label(c)).string();
    fs::remove_all(config.spill_dir);

    // A single experiment, then an ensemble and a check over the same
    // replicates: ensemble and check name their archives alike, so the
    // check rewrites the ensemble's files instead of adding to them.
    const core::ExperimentResult single = core::run_experiment(spec, config);
    std::vector<core::ExperimentResult> replicates;
    static_cast<void>(core::run_ensemble(
        spec, config, kReplicates, c.jobs,
        [&](std::size_t, const core::ExperimentResult& result) {
          replicates.push_back(result);
        }));
    std::vector<props::CheckReplicate> checks;
    static_cast<void>(props::run_check(
        spec, config, properties, kReplicates, c.jobs,
        [&](std::size_t, const props::CheckReplicate& replicate) {
          checks.push_back(replicate);
        }));
    ASSERT_EQ(replicates.size(), kReplicates);
    ASSERT_EQ(checks.size(), kReplicates);

    // Exactly one .glvt per replicate, under the historical names.
    const bool archives = c.sink != store::SinkKind::kMemory;
    EXPECT_EQ(glvt_count(config.spill_dir), archives ? kReplicates + 1 : 0);

    std::vector<std::pair<core::ExperimentResult, std::string>> runs = {
        {single, spec.name + "-s11.glvt"}};
    for (std::size_t r = 0; r < kReplicates; ++r) {
      runs.emplace_back(replicates[r],
                        spec.name + "-s11-r" + std::to_string(r) + ".glvt");
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const auto& [result, archive_name] = runs[k];
      SCOPED_TRACE(archive_name);
      // The oracle runs the trace path on the same seed, archiving
      // nothing so it cannot overwrite the file under test.
      core::ExperimentConfig oracle_config = result.config;
      oracle_config.sink = store::SinkKind::kMemory;
      const sim::SweepResult oracle =
          core::simulate_trace(spec, oracle_config);
      const core::ExperimentResult expected =
          core::reanalyze(spec, oracle_config, oracle);
      expect_extractions_identical(result.extraction, expected.extraction);
      EXPECT_EQ(result.verification.wrong_state_count(),
                expected.verification.wrong_state_count());
      // So do the reference stages on the same digitized trace.
      expect_extractions_identical(
          result.extraction,
          core::LogicAnalyzer(
              core::AnalyzerConfig{config.threshold, config.fov_ud})
              .analyze_digital(core::digitize(oracle.trace, spec.input_ids,
                                              spec.output_id, config.threshold),
                               spec.input_ids, spec.output_id));
      if (k > 0) {
        expect_check_matches_trace(checks[k - 1], oracle.trace, spec,
                                   config.threshold, properties);
      }

      const fs::path archive = fs::path(config.spill_dir) / archive_name;
      if (!archives) {
        EXPECT_FALSE(fs::exists(archive));
        continue;
      }
      ASSERT_TRUE(fs::exists(archive));
      store::SpillReader reader(archive.string());
      if (c.sink == store::SinkKind::kSpill) {
        expect_traces_identical(reader.read_all(), oracle.trace);
      } else {
        const core::PackedDigitalData planes = core::load_digitized(
            reader, spec.input_ids.size(), config.threshold);
        const core::PackedDigitalData want = core::digitize_packed(
            oracle.trace, spec.input_ids, spec.output_id, config.threshold);
        EXPECT_EQ(planes.inputs, want.inputs);
        EXPECT_EQ(planes.output, want.output);
      }
    }
  }
}

TEST(ExperimentSinks, SpillRequiresDirectory) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  core::ExperimentConfig config;
  config.total_time = 100.0;
  config.sink = store::SinkKind::kSpill;
  EXPECT_THROW((void)core::run_experiment(spec, config), InvalidArgument);
}

TEST(ExperimentSinks, ReferenceStagesOnTheArchivedPlanesMatch) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  core::ExperimentConfig config;
  config.total_time = 100.0;
  config.sink = store::SinkKind::kDigitize;
  config.spill_dir = temp_path("reference_on_planes").string();
  fs::remove_all(config.spill_dir);
  const auto result = core::run_experiment(spec, config);
  store::SpillReader reader(
      (fs::path(config.spill_dir) / (spec.name + "-s1.glvt")).string());
  const core::PackedDigitalData planes =
      core::load_digitized(reader, spec.input_ids.size(), config.threshold);
  expect_extractions_identical(
      result.extraction,
      core::LogicAnalyzer().analyze_digital(core::unpack(planes),
                                            spec.input_ids, spec.output_id));
}

TEST(ExperimentSinks, EnsembleSpillIsJobCountInvariantWithPerReplicateFiles) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 42;
  config.sink = store::SinkKind::kSpill;
  config.spill_dir =
      (fs::path(::testing::TempDir()) / "ensemble_spill").string();

  const auto serial = core::run_ensemble(spec, config, 3, 1);
  const auto parallel = core::run_ensemble(spec, config, 3, 8);
  EXPECT_EQ(core::render_ensemble_summary(serial),
            core::render_ensemble_summary(parallel));

  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(fs::exists(
        fs::path(config.spill_dir) /
        (spec.name + "-s42-r" + std::to_string(r) + ".glvt")))
        << "replicate " << r;
  }
}

TEST(ExperimentSinks, DigitizeSinkIsJobCountInvariant) {
  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 5;
  config.sink = store::SinkKind::kDigitize;

  const auto serial = core::run_ensemble(spec, config, 3, 1);
  const auto parallel = core::run_ensemble(spec, config, 3, 8);
  EXPECT_EQ(core::render_ensemble_summary(serial),
            core::render_ensemble_summary(parallel));
}

// ----------------------------------------------- ensemble confidence (CI)

TEST(EnsembleConfidence, MatchesReplicateStatistics) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 3;

  // The replicates stream through the ordered commit observer — fold the
  // same statistics by hand and compare against the reduced ensemble.
  util::RunningStats pfobe;
  util::RunningStats wrong;
  const auto ensemble = core::run_ensemble(
      spec, config, 4, 1,
      [&](std::size_t, const core::ExperimentResult& replicate) {
        pfobe.add(replicate.extraction.fitness());
        wrong.add(
            static_cast<double>(replicate.verification.wrong_state_count()));
      });
  EXPECT_DOUBLE_EQ(ensemble.pfobe.mean, pfobe.mean());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.stddev, pfobe.stddev());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.half_width,
                   util::normal_ci95_half_width(pfobe.stddev(), 4));
  // mean_confidence is exactly this projection of a Welford accumulator.
  const core::MeanConfidence projected = core::mean_confidence(pfobe);
  EXPECT_DOUBLE_EQ(projected.mean, ensemble.pfobe.mean);
  EXPECT_DOUBLE_EQ(projected.stddev, ensemble.pfobe.stddev);
  EXPECT_DOUBLE_EQ(projected.half_width, ensemble.pfobe.half_width);
  EXPECT_DOUBLE_EQ(ensemble.wrong_states.mean, wrong.mean());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.lower(),
                   ensemble.pfobe.mean - ensemble.pfobe.half_width);

  const std::string summary = core::render_ensemble_summary(ensemble);
  EXPECT_NE(summary.find("95% normal CI"), std::string::npos);
  const std::string csv = core::ensemble_confidence_csv(ensemble);
  EXPECT_NE(csv.find("pfobe_percent"), std::string::npos);
  EXPECT_NE(csv.find("wrong_states"), std::string::npos);
}

TEST(EnsembleConfidence, SingleReplicateHasZeroHalfWidth) {
  EXPECT_EQ(util::normal_ci95_half_width(1.5, 1), 0.0);
  EXPECT_GT(util::normal_ci95_half_width(1.5, 4), 0.0);
}

}  // namespace
