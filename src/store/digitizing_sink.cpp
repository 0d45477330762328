#include "store/digitizing_sink.h"

#include <algorithm>

#include "logic/word_pack.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store {

namespace {

constexpr std::size_t kWordBits = logic::BitStream::kWordBits;

/// Where n samples land after `samples` samples: the first `head` top up
/// the pending word from bit `bit`; when that completes it (`word_done`),
/// `words` whole words follow and the last `tail` samples open the next
/// pending word.
struct Split {
  std::size_t bit;
  std::size_t head;
  bool word_done;
  std::size_t words;
  std::size_t tail;
};

Split split(std::size_t samples, std::size_t n) {
  const std::size_t bit = samples % kWordBits;
  const std::size_t head = std::min(kWordBits - bit, n);
  const bool word_done = bit + head == kWordBits;
  return {bit, head, word_done, word_done ? (n - head) / kWordBits : 0,
          word_done ? (n - head) % kWordBits : 0};
}

}  // namespace

DigitizingSink::DigitizingSink(std::vector<std::string> species_ids,
                               double threshold)
    : species_ids_(std::move(species_ids)), threshold_(threshold) {
  if (!(threshold_ > 0.0)) {  // NaN fails too
    throw InvalidArgument("DigitizingSink: threshold must be positive");
  }
  if (species_ids_.empty()) {
    throw InvalidArgument("DigitizingSink: no species to track");
  }
}

std::vector<std::size_t> resolve_columns(
    const std::vector<std::string>& species_ids,
    const std::vector<std::string>& species_names) {
  std::vector<std::size_t> columns;
  columns.reserve(species_ids.size());
  for (const auto& id : species_ids) {
    const auto found =
        std::find(species_names.begin(), species_names.end(), id);
    if (found == species_names.end()) {
      throw InvalidArgument("DigitizingSink: unknown species '" + id + "'");
    }
    columns.push_back(
        static_cast<std::size_t>(found - species_names.begin()));
  }
  return columns;
}

void DigitizingSink::begin(const std::vector<std::string>& species_names) {
  columns_ = resolve_columns(species_ids_, species_names);
  min_row_width_ = *std::max_element(columns_.begin(), columns_.end()) + 1;
  planes_.assign(species_ids_.size(), logic::BitStream());
  pending_.assign(species_ids_.size(), 0);
  samples_ = 0;
  tail_committed_ = false;
}

void DigitizingSink::append(double time, const std::vector<double>& values) {
  append_hold(std::span<const double>(&time, 1), values);
}

void DigitizingSink::append_hold(std::span<const double> times,
                                 const std::vector<double>& values) {
  if (values.size() < min_row_width_) {
    throw InvalidArgument(
        "DigitizingSink::append_hold: value row narrower than the tracked "
        "species columns");
  }
  const std::size_t n = times.size();
  if (n == 0) return;
  const Split at = split(samples_, n);
  // The low m bits of fill, for m in [0, 64].
  const auto low_bits = [](std::uint64_t fill, std::size_t m) {
    return m == 0 ? std::uint64_t{0} : fill >> (kWordBits - m);
  };
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const std::uint64_t fill =
        values[columns_[i]] >= threshold_ ? ~std::uint64_t{0} : 0;
    pending_[i] |= low_bits(fill, at.head) << at.bit;
    if (!at.word_done) continue;
    planes_[i].append_word(pending_[i]);
    for (std::size_t w = 0; w < at.words; ++w) planes_[i].append_word(fill);
    pending_[i] = low_bits(fill, at.tail);
  }
  samples_ += n;
}

void DigitizingSink::append_block(
    std::span<const double> times,
    std::span<const std::span<const double>> series) {
  if (series.size() < min_row_width_) {
    throw InvalidArgument(
        "DigitizingSink::append_block: block narrower than the tracked "
        "species columns");
  }
  for (const std::size_t column : columns_) {
    if (series[column].size() != times.size()) {
      throw InvalidArgument(
          "DigitizingSink::append_block: column length differs from time "
          "column");
    }
  }
  const std::size_t n = times.size();
  if (n == 0) return;
  // Split like a hold, but each word packs its own 64 comparisons.
  const Split at = split(samples_, n);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const double* next = series[columns_[i]].data();
    pending_[i] |= logic::pack_threshold_bits(next, at.head, threshold_)
                   << at.bit;
    if (!at.word_done) continue;
    next += at.head;
    planes_[i].append_word(pending_[i]);
    for (std::size_t w = 0; w < at.words; ++w, next += kWordBits) {
      planes_[i].append_word(
          logic::pack_threshold_bits(next, kWordBits, threshold_));
    }
    pending_[i] = logic::pack_threshold_bits(next, at.tail, threshold_);
  }
  samples_ += n;
}

void DigitizingSink::finish() {
  if (tail_committed_) return;
  const std::size_t rem = samples_ % kWordBits;
  if (rem != 0) {
    for (std::size_t i = 0; i < planes_.size(); ++i) {
      planes_[i].append_bits(pending_[i], rem);
      pending_[i] = 0;
    }
  }
  tail_committed_ = true;
  if (samples_ > 0) {
    static obs::Counter& samples = obs::counter("store.digitize.samples");
    samples.add(samples_);
  }
}

logic::BitStream DigitizingSink::take_plane(std::size_t i) {
  if (i >= planes_.size()) {
    throw InvalidArgument("DigitizingSink::take_plane: index out of range");
  }
  return std::move(planes_[i]);
}

}  // namespace glva::store
