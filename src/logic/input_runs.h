#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "logic/bit_stream.h"

/// The input-run walker: the one reduction step of the analysis stage.
/// Algorithm 1 and the property check both reduce per input combination,
/// and a clamped sweep holds each combination for a whole phase, so the
/// digitized input planes change only at phase boundaries. Walking the
/// maximal runs of constant input combination turns every
/// per-combination count into a handful of range operations per run
/// instead of a classification per sample.
namespace glva::logic {

/// A maximal stretch of consecutive samples under one input combination.
struct InputRun {
  std::size_t start = 0;        ///< first sample of the run
  std::size_t length = 0;       ///< samples in the run, >= 1
  std::size_t combination = 0;  ///< combination id, input 0 = MSB
};

/// Walks the input runs of N digitized input planes in sample order, one
/// run per `next` call. Run starts are found word-parallel: each plane is
/// XORed with itself shifted by one sample, the planes are ORed, and the
/// set bits are walked with countr_zero. O(N · samples / 64) for the
/// whole walk, plus O(N) per run. The planes are borrowed and must
/// outlive the walker.
class InputRunWalker {
public:
  /// Largest input count: combination ids index 2^N per-combination
  /// records, and the reference analyzers accept the same 16.
  static constexpr std::size_t kMaxInputs = 16;

  /// Throws glva::InvalidArgument when `inputs` is empty, holds more
  /// than kMaxInputs planes, or the planes differ in length.
  explicit InputRunWalker(const std::vector<BitStream>& inputs);

  /// Fill `run` with the next run and return true, or return false once
  /// the runs cover every sample (at once for zero-length planes).
  bool next(InputRun& run);

private:
  /// Run-start bits of word `w`: bit k is set when sample 64w+k has a
  /// different combination than sample 64w+k-1.
  [[nodiscard]] std::uint64_t starts_in(std::size_t w) const noexcept;
  [[nodiscard]] std::size_t combination_at(std::size_t sample) const noexcept;

  std::vector<const std::uint64_t*> planes_;
  std::size_t samples_ = 0;
  std::size_t words_ = 0;
  std::size_t word_ = 0;       ///< word `pending_` was taken from
  std::uint64_t pending_ = 0;  ///< run starts in word_ not yet walked
  std::size_t start_ = 0;      ///< first sample of the next run
};

}  // namespace glva::logic
