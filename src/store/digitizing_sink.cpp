#include "store/digitizing_sink.h"

#include <algorithm>

#include "logic/word_pack.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store {

DigitizingSink::DigitizingSink(std::vector<std::string> species_ids,
                               double threshold)
    : species_ids_(std::move(species_ids)), threshold_(threshold) {
  if (threshold_ <= 0.0) {
    throw InvalidArgument("DigitizingSink: threshold must be positive");
  }
  if (species_ids_.empty()) {
    throw InvalidArgument("DigitizingSink: no species to track");
  }
}

DigitizingSink::DigitizingSink(std::vector<std::string> species_ids,
                               double threshold, SpillOptions spill)
    : DigitizingSink(std::move(species_ids), threshold) {
  if (spill.path.empty()) {
    throw InvalidArgument("DigitizingSink: spill path must not be empty");
  }
  // The bit-plane header records the ADC threshold the planes are
  // digitized at: the self-description a replay needs to refuse a ThVAL
  // mismatch.
  archive_.emplace(std::move(spill.path), "DigitizingSink",
                   glvt::FileWriter::Header{
                       .content = glvt::ContentKind::kBits,
                       .threshold = threshold_,
                       .seed = spill.seed,
                       .sampling_period = spill.sampling_period,
                       .chunk_capacity = spill.chunk_samples});
}

void DigitizingSink::begin(const std::vector<std::string>& species_names) {
  columns_.clear();
  columns_.reserve(species_ids_.size());
  min_row_width_ = 0;
  for (const auto& id : species_ids_) {
    std::size_t column = species_names.size();
    for (std::size_t s = 0; s < species_names.size(); ++s) {
      if (species_names[s] == id) {
        column = s;
        break;
      }
    }
    if (column == species_names.size()) {
      throw InvalidArgument("DigitizingSink: unknown species '" + id + "'");
    }
    columns_.push_back(column);
    min_row_width_ = std::max(min_row_width_, column + 1);
  }
  planes_.assign(species_ids_.size(), logic::BitStream());
  pending_.assign(species_ids_.size(), 0);
  samples_ = 0;
  tail_committed_ = false;

  if (archive_) {
    spilled_samples_ = 0;
    archive_->open(species_ids_);
  }
}

void DigitizingSink::spill_chunks(bool final) {
  if (!archive_) return;
  // Only whole committed words spill (pending bits stay in their
  // registers); the tail chunk on `final` picks up the ragged end after
  // finish() commits it.
  const std::uint64_t capacity = archive_->header().chunk_capacity;
  const std::uint64_t committed =
      final ? samples_ : samples_ - samples_ % logic::BitStream::kWordBits;
  for (;;) {
    const std::uint64_t available = committed - spilled_samples_;
    if (available == 0) break;
    const std::uint64_t take = std::min(available, capacity);
    if (take < capacity && !final) break;
    const std::size_t first_word =
        static_cast<std::size_t>(spilled_samples_ / 64);
    const std::size_t chunk_words = static_cast<std::size_t>((take + 63) / 64);
    std::string& chunk =
        archive_->begin_chunk(static_cast<std::uint32_t>(take));
    for (const logic::BitStream& plane : planes_) {
      glvt::encode_words_section(plane.words().data() + first_word,
                                 chunk_words, chunk);
    }
    archive_->write_chunk();
    spilled_samples_ += take;
  }
}

void DigitizingSink::commit_words() {
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    planes_[i].append_word(pending_[i]);
    pending_[i] = 0;
  }
}

void DigitizingSink::append(double time, const std::vector<double>& values) {
  append_hold(std::span<const double>(&time, 1), values);
}

void DigitizingSink::append_hold(std::span<const double> times,
                                 const std::vector<double>& values) {
  constexpr std::size_t kWordBits = logic::BitStream::kWordBits;
  if (values.size() < min_row_width_) {
    throw InvalidArgument(
        "DigitizingSink::append_hold: value row narrower than the tracked "
        "species columns");
  }
  const std::size_t n = times.size();
  if (n == 0) return;
  // The hold tops up the pending word; when that completes it, whole
  // words follow and the tail opens the next pending word.
  const std::size_t bit = samples_ % kWordBits;
  const std::size_t head = std::min(kWordBits - bit, n);
  const bool word_done = bit + head == kWordBits;
  const std::size_t words = word_done ? (n - head) / kWordBits : 0;
  const std::size_t tail = word_done ? (n - head) % kWordBits : 0;
  // The low m bits of fill, for m in [0, 64].
  const auto low_bits = [](std::uint64_t fill, std::size_t m) {
    return m == 0 ? std::uint64_t{0} : fill >> (kWordBits - m);
  };
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const std::uint64_t fill =
        values[columns_[i]] >= threshold_ ? ~std::uint64_t{0} : 0;
    pending_[i] |= low_bits(fill, head) << bit;
    if (!word_done) continue;
    planes_[i].append_word(pending_[i]);
    for (std::size_t w = 0; w < words; ++w) planes_[i].append_word(fill);
    pending_[i] = low_bits(fill, tail);
  }
  samples_ += n;
  if (word_done) spill_chunks(false);
}

void DigitizingSink::append_block(
    std::span<const double> times,
    std::span<const std::span<const double>> series) {
  constexpr std::size_t kWordBits = logic::BitStream::kWordBits;
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
  std::size_t k = 0;
  while (k < n) {
    const std::size_t bit = samples_ % kWordBits;
    if (bit != 0 || n - k < kWordBits) {
      // Fill the pending word up to the next boundary (or the block end).
      const std::size_t m = std::min(kWordBits - bit, n - k);
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        const std::span<const double> column = series[columns_[i]];
        pending_[i] |=
            logic::pack_threshold_bits(column.data() + k, m, threshold_) << bit;
      }
      samples_ += m;
      k += m;
      if (samples_ % kWordBits == 0) commit_words();
    } else {
      // Word-aligned bulk: one dispatched pack_threshold_block call fills
      // each batch (64 comparisons per word, 2/4/8 doubles per compare on
      // the SIMD tiers), committed to the plane with one bulk insert.
      constexpr std::size_t kBatchWords = 64;  // 4096 samples per commit
      std::uint64_t batch[kBatchWords];
      const std::size_t words = (n - k) / kWordBits;
      const logic::simd::KernelSet& kernels = logic::simd::active();
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        const double* base = series[columns_[i]].data() + k;
        for (std::size_t w = 0; w < words;) {
          const std::size_t take = std::min(kBatchWords, words - w);
          kernels.pack_threshold_block(base + w * kWordBits, take, threshold_,
                                       batch);
          planes_[i].append_words(std::span<const std::uint64_t>(batch, take));
          w += take;
        }
      }
      samples_ += words * kWordBits;
      k += words * kWordBits;
    }
  }
  spill_chunks(false);
}

void DigitizingSink::finish() {
  if (tail_committed_) return;
  const std::size_t rem = samples_ % logic::BitStream::kWordBits;
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

  if (archive_) {
    spill_chunks(true);
    archive_->finish(samples_);
  }
}

logic::BitStream DigitizingSink::take_plane(std::size_t i) {
  if (i >= planes_.size()) {
    throw InvalidArgument("DigitizingSink::take_plane: index out of range");
  }
  return std::move(planes_[i]);
}

}  // namespace glva::store
