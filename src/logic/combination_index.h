#pragma once

#include <cstddef>
#include <vector>

#include "logic/bit_stream.h"

/// A packed sample-to-combination classifier: given the digitized input
/// streams (the bit-planes of the paper's "input combination" id, input
/// 0 = MSB), it derives, for every combination c, the selection mask of
/// samples observed under c, with word-parallel AND masks instead of the
/// reference CaseAnalyzer's per-sample branch.
namespace glva::logic {

/// One packed pass over N input BitStreams producing 2^N sample-selection
/// masks plus their popcount occupancy (the paper's Case_I).
///
/// Mask construction: combination c's word w is the AND over inputs i of
/// (input i's word w if bit i of c is set, else its complement), so every
/// sample is selected by exactly one mask — the masks partition [0, n).
/// Cost: O(2^N · N · samples / 64) time and O(2^N · samples / 8) bytes.
///
/// Production reduces along input runs instead (logic/input_runs.h); the
/// index stays as a second oracle for the run reduction's tests and for
/// the committed benchmark, which builds its own check reduction on it.
class CombinationIndex {
public:
  /// Hard cap on mask materialization: 2^N masks each occupy the bytes of
  /// one packed stream, so 8 inputs cost 256× one stream (32 MB at 10^6
  /// samples).
  static constexpr std::size_t kMaxInputs = 8;

  /// Empty placeholder (input_count() == 0), so result structs carrying an
  /// index stay default-constructible before being filled in.
  CombinationIndex() = default;

  /// Build from the digitized input streams, MSB first (inputs[0] is the
  /// paper's leftmost input bit). Throws glva::InvalidArgument when
  /// `inputs` is empty, has more than kMaxInputs entries, or the streams
  /// have mismatched lengths.
  explicit CombinationIndex(const std::vector<BitStream>& inputs);

  [[nodiscard]] std::size_t input_count() const noexcept { return input_count_; }
  [[nodiscard]] std::size_t sample_count() const noexcept { return sample_count_; }
  /// 2^input_count (0 for the default-constructed placeholder).
  [[nodiscard]] std::size_t combination_count() const noexcept {
    return masks_.size();
  }

  /// Selection mask of combination c: bit k set iff sample k was observed
  /// under c. Throws glva::InvalidArgument when c >= combination_count().
  [[nodiscard]] const BitStream& mask(std::size_t c) const;

  /// Case_I[c] — number of samples observed under combination c
  /// (popcount(mask(c)), precomputed). Throws glva::InvalidArgument when
  /// c >= combination_count(). The counts sum to sample_count().
  [[nodiscard]] std::size_t count(std::size_t c) const;

  /// Combination id of one sample (the inverse view of the masks; O(2^N),
  /// intended for tests and spot checks, not hot loops). Throws
  /// glva::InvalidArgument when sample >= sample_count().
  [[nodiscard]] std::size_t id(std::size_t sample) const;

private:
  std::size_t input_count_ = 0;
  std::size_t sample_count_ = 0;
  std::vector<BitStream> masks_;      ///< indexed by combination
  std::vector<std::size_t> counts_;   ///< popcount(masks_[c]), cached
};

}  // namespace glva::logic
