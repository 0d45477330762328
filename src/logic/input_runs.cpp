#include "logic/input_runs.h"

#include <bit>

#include "util/errors.h"

namespace glva::logic {

InputRunWalker::InputRunWalker(const std::vector<BitStream>& inputs) {
  if (inputs.empty()) {
    throw InvalidArgument("InputRunWalker: no input planes");
  }
  if (inputs.size() > kMaxInputs) {
    throw InvalidArgument("InputRunWalker: more than 16 inputs");
  }
  samples_ = inputs.front().size();
  words_ = inputs.front().word_count();
  planes_.reserve(inputs.size());
  for (const BitStream& plane : inputs) {
    if (plane.size() != samples_) {
      throw InvalidArgument("InputRunWalker: input plane lengths differ");
    }
    planes_.push_back(plane.words().data());
  }
  // Sample 0 opens the first run (start_), so it is no pending start.
  if (words_ != 0) pending_ = starts_in(0) & ~std::uint64_t{1};
}

std::uint64_t InputRunWalker::starts_in(std::size_t w) const noexcept {
  std::uint64_t starts = 0;
  for (const std::uint64_t* plane : planes_) {
    const std::uint64_t carry = w == 0 ? 0 : plane[w - 1] >> 63;
    starts |= plane[w] ^ ((plane[w] << 1) | carry);
  }
  // Past the last sample every plane reads 0, and a step down from a
  // final 1 would read as a run start.
  const std::size_t valid = samples_ - w * BitStream::kWordBits;
  if (valid < BitStream::kWordBits) starts &= (std::uint64_t{1} << valid) - 1;
  return starts;
}

std::size_t InputRunWalker::combination_at(std::size_t sample) const noexcept {
  const std::size_t w = sample / BitStream::kWordBits;
  const std::size_t bit = sample % BitStream::kWordBits;
  std::size_t combination = 0;
  for (const std::uint64_t* plane : planes_) {
    combination = (combination << 1) | ((plane[w] >> bit) & 1U);
  }
  return combination;
}

bool InputRunWalker::next(InputRun& run) {
  if (start_ >= samples_) return false;
  while (pending_ == 0 && word_ + 1 < words_) pending_ = starts_in(++word_);
  std::size_t end = samples_;
  if (pending_ != 0) {
    end = word_ * BitStream::kWordBits +
          static_cast<std::size_t>(std::countr_zero(pending_));
    pending_ &= pending_ - 1;
  }
  run.start = start_;
  run.length = end - start_;
  run.combination = combination_at(start_);
  start_ = end;
  return true;
}

}  // namespace glva::logic
