#include "core/record_sink.h"

#include <algorithm>
#include <utility>

#include "logic/input_runs.h"
#include "store/digitizing_sink.h"
#include "util/errors.h"

namespace glva::core {

RecordSink::RecordSink(std::vector<std::string> input_ids,
                       std::string output_id, double threshold)
    : species_ids_(std::move(input_ids)), threshold_(threshold) {
  if (!(threshold_ > 0.0)) {  // NaN fails too
    throw InvalidArgument("RecordSink: threshold must be positive");
  }
  if (species_ids_.empty() ||
      species_ids_.size() > logic::InputRunWalker::kMaxInputs) {
    throw InvalidArgument("RecordSink: 1 to 16 input species are required");
  }
  species_ids_.push_back(std::move(output_id));
}

void RecordSink::begin(const std::vector<std::string>& species_names) {
  columns_ = store::resolve_columns(species_ids_, species_names);
  min_row_width_ = *std::max_element(columns_.begin(), columns_.end()) + 1;
  analysis_.input_count = columns_.size() - 1;
  analysis_.records.assign(std::size_t{1} << analysis_.input_count, {});
  for (std::size_t c = 0; c < analysis_.records.size(); ++c) {
    analysis_.records[c].combination = c;
  }
  last_bit_.assign(analysis_.records.size(), kUnseen);
}

void RecordSink::append(double time, const std::vector<double>& values) {
  append_hold(std::span<const double>(&time, 1), values);
}

void RecordSink::append_hold(std::span<const double> times,
                             const std::vector<double>& values) {
  if (values.size() < min_row_width_) {
    throw InvalidArgument(
        "RecordSink::append_hold: value row narrower than the tracked "
        "species columns");
  }
  const std::size_t n = times.size();
  if (n == 0) return;
  std::size_t combination = 0;
  for (std::size_t i = 0; i < analysis_.input_count; ++i) {
    combination = (combination << 1) |
                  (values[columns_[i]] >= threshold_ ? 1U : 0U);
  }
  const std::uint8_t bit = values[columns_.back()] >= threshold_ ? 1 : 0;
  VariationRecord& record = analysis_.records[combination];
  record.case_count += n;
  record.high_count += bit * n;
  std::uint8_t& last = last_bit_[combination];
  if (last != kUnseen && last != bit) ++record.variation_count;
  last = bit;
}

void RecordSink::finish() { estimate_fov(analysis_); }

}  // namespace glva::core
