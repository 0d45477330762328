#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/glvt.h"
#include "store/trace_sink.h"

namespace glva::store {

/// Disk-spilling sink: rows accumulate in a fixed-capacity chunk buffer
/// and are flushed to a `.glvt` file every `chunk_samples` samples, so
/// resident memory is O(chunk_samples · species) however long the run —
/// the enabling path for 10^7–10^8-sample realizations. `finish()` writes
/// the trailing partial chunk, the chunk index, and patches the header's
/// sample/chunk counts; a file without that patch (crash, truncation) is
/// rejected by `SpillReader`.
///
/// Chunk flushes are double-buffered onto a dedicated writer thread: the
/// sampler encodes the next chunk while the previous one is on disk's
/// time, blocking only when both queue slots are full (that stall is what
/// the `spill.flush_wait_us` histogram measures). On POSIX the writer
/// preallocates file extents ahead of itself (`posix_fallocate`, trimmed
/// back on finish). A writer-side I/O error is latched and rethrown from
/// the next delivery or `finish` call, so producers see the
/// same glva::StorageError contract as the synchronous path — which is
/// still available via the `GLVA_SYNC_SPILL=1` environment escape hatch
/// (same bytes, no thread; for debugging and single-threaded profiling).
class SpillSink final : public TraceSink {
public:
  struct Options {
    /// Samples buffered per chunk; must be a positive multiple of 64 (the
    /// BitStream word size — keeps replayed chunks word-aligned).
    std::uint32_t chunk_samples = glvt::kDefaultChunkSamples;
    /// Recorded in the header so a spill file is self-describing: the RNG
    /// seed that produced the trace and its sampling period.
    std::uint64_t seed = 0;
    double sampling_period = 1.0;
    /// On-disk format to emit: glvt::kVersion (current, grid-time capable)
    /// or 1 (the pre-grid layout, kept writable for the backward-compat
    /// goldens and v1-vs-v2 benches). The sampling_period above doubles as
    /// the v2 grid baseline: chunks whose times are bit-identical to
    /// `sample_index · sampling_period` collapse to kGrid sections.
    std::uint32_t format_version = glvt::kVersion;
  };

  /// Throws glva::InvalidArgument for a zero or non-multiple-of-64 chunk
  /// size or an unwritable format version. The file is created in
  /// begin(), not here.
  explicit SpillSink(std::string path);  // default Options
  SpillSink(std::string path, Options options);

  /// Joins the writer thread if `finish()` was never reached (exception
  /// unwinding); the file is left unfinished and `SpillReader` rejects it.
  ~SpillSink() override;

  /// Creates/truncates the file, writes the header, and starts the writer
  /// thread (unless GLVA_SYNC_SPILL is set). Throws glva::StorageError
  /// when the path cannot be opened.
  void begin(const std::vector<std::string>& species_names) override;

  /// One-sample `append_hold`.
  void append(double time, const std::vector<double>& values) override;

  /// Buffer a column-wise block, flushing every chunk it fills — one bulk
  /// copy per column per chunk instead of a row loop, and the file bytes
  /// are identical to the row path's however the samples were sliced.
  /// Throws glva::InvalidArgument on a block narrower than the species
  /// list and glva::StorageError on write failure.
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override;

  /// Buffer a hold, flushing every chunk it fills — the times copied, each
  /// species column filled with its one value; the file bytes are
  /// identical to the row path's. Throws glva::InvalidArgument on a row
  /// narrower than the species list and glva::StorageError on write
  /// failure (including a failure latched by the writer thread since the
  /// previous call).
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override;

  /// Flush the tail chunk, drain and join the writer thread, write the
  /// chunk index, patch the header, and close the file. Throws
  /// glva::StorageError on any write failure, the producer's or the
  /// writer's.
  void finish() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return sample_count_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunk_offsets_.size();
  }

private:
  void flush_chunk();
  /// Hand one encoded chunk to the writer thread, blocking while both
  /// queue slots are in flight; synchronous write when no thread runs.
  void submit(std::string&& chunk);
  /// Rethrow a latched writer-thread error as glva::StorageError.
  void throw_if_writer_failed();
  /// Stop and join the writer thread after its queue drains.
  void join_writer();
  void writer_main();
  /// Extend the file's allocation ahead of `needed` bytes (POSIX, writer
  /// thread only; advisory — failure just disables preallocation).
  void preallocate(std::uint64_t needed);

  std::string path_;
  Options options_;
  std::fstream file_;
  std::vector<std::string> species_names_;
  std::vector<double> times_;                ///< buffered chunk column
  std::vector<std::vector<double>> series_;  ///< [species][buffered sample]
  std::vector<std::uint64_t> chunk_offsets_;
  std::uint64_t sample_count_ = 0;
  std::uint64_t write_offset_ = 0;  ///< file offset of the next chunk
  bool finished_ = false;

  // Double-buffered writer state. The fstream is handed off wholesale:
  // the producer touches it before the thread starts (header) and after
  // join_writer() (index + header patch), the writer thread in between —
  // thread start/join are the synchronization edges, so no lock guards the
  // stream itself. Everything below IS guarded by mu_ except written_ and
  // allocated_ (writer-thread-only) and async_ (set once in begin()).
  bool async_ = false;
  std::thread writer_;
  std::mutex mu_;
  std::condition_variable queue_has_space_;
  std::condition_variable queue_has_data_;
  std::deque<std::string> queue_;        ///< in-flight chunks, ≤ 2
  std::vector<std::string> free_bufs_;   ///< recycled chunk buffers
  bool stop_ = false;
  /// Set (under mu_) when the writer hits an I/O error; read with a
  /// relaxed load on the append fast path so rows fail fast without
  /// taking the lock. The message itself stays under mu_.
  std::atomic<bool> writer_failed_{false};
  std::string writer_error_;
  std::uint64_t written_ = 0;    ///< writer-thread file position
  std::uint64_t allocated_ = 0;  ///< bytes preallocated so far
  int prealloc_fd_ = -1;         ///< POSIX fd for fallocate/ftruncate
};

}  // namespace glva::store
