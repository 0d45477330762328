#include "store/spill_sink.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define GLVA_SPILL_FALLOCATE 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store {

namespace {

/// The bounded queue depth: one chunk on disk's time, one encoded and
/// waiting, while the producer fills the third buffer — classic double
/// buffering. Deeper queues only add memory; the writer is either keeping
/// up (queue empty) or the disk is the bottleneck (queue full either way).
constexpr std::size_t kQueueDepth = 2;

/// Preallocation stride for the writer thread's fallocate pass: large
/// enough to amortize the syscall across many chunks, small enough that
/// the finish-time trim never strands much.
constexpr std::uint64_t kPreallocBytes = 8ull << 20;  // 8 MiB

bool sync_spill_requested() {
  const char* env = std::getenv("GLVA_SYNC_SPILL");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

}  // namespace

SpillSink::SpillSink(std::string path) : SpillSink(std::move(path), Options{}) {}

SpillSink::SpillSink(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  if (options_.chunk_samples == 0 || options_.chunk_samples % 64 != 0) {
    throw InvalidArgument(
        "SpillSink: chunk_samples must be a positive multiple of 64");
  }
  if (options_.format_version < glvt::kMinVersion ||
      options_.format_version > glvt::kVersion) {
    throw InvalidArgument("SpillSink: unwritable .glvt format version " +
                          std::to_string(options_.format_version));
  }
}

SpillSink::~SpillSink() {
  // Unwind path (finish() never ran, or threw): the writer must not
  // outlive the stream it writes to. The file stays unfinished —
  // index_offset is still zero, so SpillReader rejects it.
  if (writer_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    queue_has_data_.notify_one();
    writer_.join();
  }
#if GLVA_SPILL_FALLOCATE
  if (prealloc_fd_ >= 0) ::close(prealloc_fd_);
#endif
}

void SpillSink::begin(const std::vector<std::string>& species_names) {
  species_names_ = species_names;
  series_.assign(species_names.size(), {});
  times_.clear();
  times_.reserve(options_.chunk_samples);
  for (auto& series : series_) series.reserve(options_.chunk_samples);

  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_) {
    throw StorageError("SpillSink: cannot open spill file: " + path_);
  }

  std::string header;
  header.append(glvt::kMagic, sizeof glvt::kMagic);
  glvt::append_u32(header, options_.format_version);
  glvt::append_u64(header, options_.seed);
  glvt::append_f64(header, options_.sampling_period);
  glvt::append_u32(header, static_cast<std::uint32_t>(species_names.size()));
  glvt::append_u32(header, options_.chunk_samples);
  glvt::append_u64(header, 0);  // sample_count, patched in finish()
  glvt::append_u64(header, 0);  // chunk_count, patched in finish()
  glvt::append_u64(header, 0);  // index_offset, patched in finish()
  if (options_.format_version >= 2) {
    glvt::append_u32(header,
                     static_cast<std::uint32_t>(glvt::ContentKind::kAnalog));
    glvt::append_f64(header, 0.0);  // threshold: unused for analog content
  }
  for (const auto& name : species_names) {
    glvt::append_u32(header, static_cast<std::uint32_t>(name.size()));
    header.append(name);
  }
  file_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!file_) {
    throw StorageError("SpillSink: header write failed: " + path_);
  }
  write_offset_ = header.size();
  written_ = header.size();
  allocated_ = header.size();

  async_ = !sync_spill_requested();
  if (async_) {
#if GLVA_SPILL_FALLOCATE
    prealloc_fd_ = ::open(path_.c_str(), O_WRONLY);
#endif
    // The fstream handoff to the writer thread: everything the producer
    // wrote above happens-before the thread's first write.
    writer_ = std::thread([this] { writer_main(); });
  }
}

void SpillSink::throw_if_writer_failed() {
  if (!writer_failed_.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(mu_);
  throw StorageError(writer_error_);
}

void SpillSink::append(double time, const std::vector<double>& values) {
  append_hold(std::span<const double>(&time, 1), values);
}

void SpillSink::append_hold(std::span<const double> times,
                            const std::vector<double>& values) {
  if (values.size() < species_names_.size()) {
    throw InvalidArgument(
        "SpillSink::append_hold: value row narrower than species list");
  }
  throw_if_writer_failed();
  std::size_t offset = 0;
  while (offset < times.size()) {
    const std::size_t room = options_.chunk_samples - times_.size();
    const std::size_t take = std::min(room, times.size() - offset);
    times_.insert(times_.end(), times.begin() + offset,
                  times.begin() + offset + take);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      series_[i].insert(series_[i].end(), take, values[i]);
    }
    sample_count_ += take;
    offset += take;
    if (times_.size() == options_.chunk_samples) flush_chunk();
  }
}

void SpillSink::append_block(std::span<const double> times,
                             std::span<const std::span<const double>> series) {
  if (series.size() < species_names_.size()) {
    throw InvalidArgument(
        "SpillSink::append_block: block narrower than species list");
  }
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series[i].size() != times.size()) {
      throw InvalidArgument(
          "SpillSink::append_block: column length differs from time column");
    }
  }
  throw_if_writer_failed();
  std::size_t offset = 0;
  while (offset < times.size()) {
    const std::size_t room = options_.chunk_samples - times_.size();
    const std::size_t take = std::min(room, times.size() - offset);
    times_.insert(times_.end(), times.begin() + offset,
                  times.begin() + offset + take);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      series_[i].insert(series_[i].end(), series[i].begin() + offset,
                        series[i].begin() + offset + take);
    }
    sample_count_ += take;
    offset += take;
    if (times_.size() == options_.chunk_samples) flush_chunk();
  }
}

void SpillSink::flush_chunk() {
  if (times_.empty()) return;
  chunk_offsets_.push_back(write_offset_);

  std::string chunk;
  {
    // Recycled from the writer thread: keeps the encode allocation-free
    // after the first two chunks.
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_bufs_.empty()) {
      chunk = std::move(free_bufs_.back());
      free_bufs_.pop_back();
      chunk.clear();
    }
  }
  glvt::append_u32(chunk, glvt::kChunkMagic);
  glvt::append_u32(chunk, static_cast<std::uint32_t>(times_.size()));
  if (options_.format_version >= 2) {
    const std::uint64_t first_sample = sample_count_ - times_.size();
    const std::size_t before = chunk.size();
    if (glvt::encode_time_section(times_, first_sample,
                                  options_.sampling_period, chunk)) {
      static obs::Counter& bytes_saved = obs::counter("spill.bytes_saved");
      // What the v1 layout would have cost (times never RLE) minus the
      // grid section actually emitted.
      const std::size_t raw_cost =
          1 + sizeof(std::uint32_t) + times_.size() * sizeof(double);
      bytes_saved.add(raw_cost - (chunk.size() - before));
    }
  } else {
    glvt::encode_section(times_, chunk);
  }
  for (const auto& series : series_) glvt::encode_section(series, chunk);

  write_offset_ += chunk.size();
  static obs::Counter& bytes_written =
      obs::counter("store.spill.bytes_written");
  static obs::Counter& chunks_flushed =
      obs::counter("store.spill.chunks_flushed");
  bytes_written.add(chunk.size());
  chunks_flushed.increment();

  submit(std::move(chunk));
  times_.clear();
  for (auto& series : series_) series.clear();
}

void SpillSink::submit(std::string&& chunk) {
  if (!async_) {
    file_.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    if (!file_) {
      throw StorageError("SpillSink: chunk write failed: " + path_);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    free_bufs_.push_back(std::move(chunk));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  {
    // Stall time until a queue slot frees up — the histogram that shows
    // whether the disk or the simulation is the bottleneck. Recorded for
    // every submission (near-zero when the writer keeps up).
    static obs::Histogram& wait_us = obs::histogram("spill.flush_wait_us");
    const obs::ScopedLatency latency(wait_us);
    queue_has_space_.wait(lock, [this] {
      return queue_.size() < kQueueDepth ||
             writer_failed_.load(std::memory_order_relaxed);
    });
  }
  if (writer_failed_.load(std::memory_order_relaxed)) {
    throw StorageError(writer_error_);
  }
  queue_.push_back(std::move(chunk));
  lock.unlock();
  queue_has_data_.notify_one();
}

void SpillSink::writer_main() {
  bool failed = false;
  for (;;) {
    std::string chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_has_data_.wait(lock,
                           [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) return;  // stop_ set and fully drained
      chunk = std::move(queue_.front());
      queue_.pop_front();
    }

    std::string error;
    if (!failed) {
      preallocate(written_ + chunk.size());
      file_.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      if (!file_) {
        failed = true;
        error = "SpillSink: chunk write failed: " + path_;
      } else {
        written_ += chunk.size();
      }
    }
    // After a failure the loop keeps draining (and discarding) chunks so
    // a producer blocked on a full queue always wakes up.

    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!error.empty() && writer_error_.empty()) {
        writer_error_ = error;
        writer_failed_.store(true, std::memory_order_relaxed);
      }
      free_bufs_.push_back(std::move(chunk));
    }
    queue_has_space_.notify_one();
  }
}

void SpillSink::preallocate(std::uint64_t needed) {
#if GLVA_SPILL_FALLOCATE
  if (prealloc_fd_ < 0 || needed <= allocated_) return;
  const std::uint64_t grow = std::max(needed - allocated_, kPreallocBytes);
  if (::posix_fallocate(prealloc_fd_, static_cast<off_t>(allocated_),
                        static_cast<off_t>(grow)) == 0) {
    allocated_ += grow;
  } else {
    // Advisory: filesystems without extent support just write unassisted.
    ::close(prealloc_fd_);
    prealloc_fd_ = -1;
  }
#else
  static_cast<void>(needed);
#endif
}

void SpillSink::join_writer() {
  if (!writer_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_has_data_.notify_one();
  writer_.join();
}

void SpillSink::finish() {
  if (finished_) return;
  flush_chunk();
  join_writer();  // drains the queue; everything the writer did is visible
  throw_if_writer_failed();

  const std::uint64_t index_offset = write_offset_;
  std::string index;
  for (const std::uint64_t offset : chunk_offsets_) {
    glvt::append_u64(index, offset);
  }
  file_.write(index.data(), static_cast<std::streamsize>(index.size()));

  // Patch the three header fields whose zero value marks an unfinished
  // file; index_offset goes last, so a crash mid-patch still reads as
  // unfinished.
  std::string patch;
  glvt::append_u64(patch, sample_count_);
  glvt::append_u64(patch, static_cast<std::uint64_t>(chunk_offsets_.size()));
  file_.seekp(static_cast<std::streamoff>(glvt::kSampleCountOffset));
  file_.write(patch.data(), static_cast<std::streamsize>(patch.size()));
  patch.clear();
  glvt::append_u64(patch, index_offset);
  file_.seekp(static_cast<std::streamoff>(glvt::kIndexOffsetOffset));
  file_.write(patch.data(), static_cast<std::streamsize>(patch.size()));

  file_.flush();
  if (!file_) {
    throw StorageError("SpillSink: finalize failed: " + path_);
  }
  file_.close();
#if GLVA_SPILL_FALLOCATE
  if (prealloc_fd_ >= 0) {
    // Trim the fallocate overshoot back to the real end of the file; the
    // index must stay the last thing a reader sees.
    const std::uint64_t end = index_offset + index.size();
    if (allocated_ > end) {
      static_cast<void>(::ftruncate(prealloc_fd_, static_cast<off_t>(end)));
    }
    ::close(prealloc_fd_);
    prealloc_fd_ = -1;
  }
#endif
  finished_ = true;
}

}  // namespace glva::store
