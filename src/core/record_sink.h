#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/variation_analyzer.h"
#include "store/trace_sink.h"

namespace glva::core {

/// Algorithm 1's lines 4-6 reduced straight from the sampler's holds: the
/// ADC, Case_I, HIGH_O and O_Var, with no bit-plane in between. A
/// stochastic trajectory is constant between SSA events, so a hold of n
/// samples carries one input combination c (inputs MSB first) and one
/// output bit o, each thresholded once with the ADC's inclusive `>=` (NaN
/// reads 0). The hold adds n to Case_I[c] and o·n to HIGH_O[c], and one to
/// O_Var[c] when c has logged a bit before and that last bit differs from
/// o. Between two holds of one run that is a transition; across a gap it
/// is the compacted-stream semantics of analyze_runs (docs/ANALYSIS.md). A
/// zero-length hold logs nothing.
///
/// Bit-identical to analyze_runs over the planes a store::DigitizingSink
/// builds from the same deliveries, at O(N + 1) per hold instead of
/// 0.5 B of plane per sample and O(N · samples / 64) to walk it. Rows are
/// one-sample holds; blocks take the base class's row loop.
class RecordSink final : public store::TraceSink {
public:
  /// Count `input_ids` (MSB first) against `output_id` at ThVAL
  /// `threshold` (molecules). Throws glva::InvalidArgument unless
  /// threshold > 0 and there are 1 to 16 inputs.
  RecordSink(std::vector<std::string> input_ids, std::string output_id,
             double threshold);

  /// Resolves the ids against the stream's species columns
  /// (store::resolve_columns) and starts 2^N empty records. Throws
  /// glva::InvalidArgument for an unknown id.
  void begin(const std::vector<std::string>& species_names) override;

  /// One-sample `append_hold`.
  void append(double time, const std::vector<double>& values) override;

  /// Counts `times.size()` samples of `values`' combination and output
  /// bit. Throws glva::InvalidArgument on a row narrower than the tracked
  /// columns.
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override;

  /// Fills every record's fov_est (core::estimate_fov).
  void finish() override;

  /// Move out Case_I, HIGH_O, O_Var and FOV_EST per combination, indexed
  /// by combination (complete after finish()).
  [[nodiscard]] VariationAnalysis take() noexcept {
    return std::move(analysis_);
  }

private:
  static constexpr std::uint8_t kUnseen = 2;

  std::vector<std::string> species_ids_;  ///< inputs MSB first, then output
  double threshold_;
  std::vector<std::size_t> columns_;  ///< tracked id -> species column
  std::size_t min_row_width_ = 0;     ///< 1 + max(columns_), row precondition
  VariationAnalysis analysis_;
  /// The output bit each combination logged last, or kUnseen.
  std::vector<std::uint8_t> last_bit_;
};

}  // namespace glva::core
