#include "store/spill_sink.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store {

SpillSink::SpillSink(std::string path) : SpillSink(std::move(path), Options{}) {}

SpillSink::SpillSink(std::string path, Options options)
    : file_(std::move(path), "SpillSink",
            {.seed = options.seed,
             .sampling_period = options.sampling_period,
             .chunk_capacity = options.chunk_samples}) {}

void SpillSink::begin(const std::vector<std::string>& species_names) {
  const std::uint32_t capacity = file_.header().chunk_capacity;
  runs_.assign(species_names.size(), {});
  times_.clear();
  times_.reserve(capacity);
  file_.open(species_names);
}

void SpillSink::append(double time, const std::vector<double>& values) {
  append_hold(std::span<const double>(&time, 1), values);
}

void SpillSink::append_hold(std::span<const double> times,
                            const std::vector<double>& values) {
  if (values.size() < runs_.size()) {
    throw InvalidArgument(
        "SpillSink::append_hold: value row narrower than species list");
  }
  const std::uint32_t capacity = file_.header().chunk_capacity;
  std::size_t offset = 0;
  while (offset < times.size()) {
    const std::size_t room = capacity - times_.size();
    const std::size_t take = std::min(room, times.size() - offset);
    times_.insert(times_.end(), times.begin() + offset,
                  times.begin() + offset + take);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      glvt::append_run(runs_[i], values[i], static_cast<std::uint32_t>(take));
    }
    sample_count_ += take;
    offset += take;
    if (times_.size() == capacity) flush_chunk();
  }
}

void SpillSink::append_block(std::span<const double> times,
                             std::span<const std::span<const double>> series) {
  if (series.size() < runs_.size()) {
    throw InvalidArgument(
        "SpillSink::append_block: block narrower than species list");
  }
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (series[i].size() != times.size()) {
      throw InvalidArgument(
          "SpillSink::append_block: column length differs from time column");
    }
  }
  const std::uint32_t capacity = file_.header().chunk_capacity;
  std::size_t offset = 0;
  while (offset < times.size()) {
    const std::size_t room = capacity - times_.size();
    const std::size_t take = std::min(room, times.size() - offset);
    times_.insert(times_.end(), times.begin() + offset,
                  times.begin() + offset + take);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      for (const double value : series[i].subspan(offset, take)) {
        glvt::append_run(runs_[i], value, 1);
      }
    }
    sample_count_ += take;
    offset += take;
    if (times_.size() == capacity) flush_chunk();
  }
}

void SpillSink::flush_chunk() {
  if (times_.empty()) return;
  std::string& chunk =
      file_.begin_chunk(static_cast<std::uint32_t>(times_.size()));
  const std::size_t before = chunk.size();
  if (glvt::encode_time_section(times_, sample_count_ - times_.size(),
                                file_.header().sampling_period, chunk)) {
    static obs::Counter& bytes_saved = obs::counter("spill.bytes_saved");
    // What a raw time column would have cost minus the grid section
    // actually emitted.
    const std::size_t raw_cost =
        1 + sizeof(std::uint32_t) + times_.size() * sizeof(double);
    bytes_saved.add(raw_cost - (chunk.size() - before));
  }
  for (const auto& runs : runs_) glvt::encode_runs(runs, times_.size(), chunk);
  file_.write_chunk();
  times_.clear();
  for (auto& runs : runs_) runs.clear();
}

void SpillSink::finish() {
  if (finished_) return;
  flush_chunk();
  file_.finish(sample_count_);
  finished_ = true;
}

}  // namespace glva::store
