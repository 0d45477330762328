#include "logic/combination_index.h"

#include "util/errors.h"

namespace glva::logic {

CombinationIndex::CombinationIndex(const std::vector<BitStream>& inputs) {
  if (inputs.empty()) {
    throw InvalidArgument("CombinationIndex: no input streams");
  }
  if (inputs.size() > kMaxInputs) {
    throw InvalidArgument("CombinationIndex: more than " +
                          std::to_string(kMaxInputs) + " inputs");
  }
  input_count_ = inputs.size();
  sample_count_ = inputs.front().size();
  for (const BitStream& input : inputs) {
    if (input.size() != sample_count_) {
      throw InvalidArgument("CombinationIndex: input stream lengths differ");
    }
  }

  const std::size_t combinations = std::size_t{1} << input_count_;
  masks_.reserve(combinations);
  counts_.assign(combinations, 0);

  // Combination c's stream is the AND over inputs i of (plane i if bit i
  // of c is set, else its complement), with input 0 as the MSB — the
  // paper's "input combination 100" notation and the reference
  // CaseAnalyzer's bit order. Selecting plane-vs-complement is one XOR
  // with an all-ones/all-zero constant.
  const std::size_t words = inputs.front().word_count();
  for (std::size_t c = 0; c < combinations; ++c) {
    std::vector<std::uint64_t> mask_words(words, ~std::uint64_t{0});
    for (std::size_t i = 0; i < input_count_; ++i) {
      const bool bit_set = ((c >> (input_count_ - 1 - i)) & 1U) != 0;
      const std::uint64_t invert = bit_set ? 0 : ~std::uint64_t{0};
      const std::span<const std::uint64_t> plane = inputs[i].words();
      for (std::size_t w = 0; w < words; ++w) {
        mask_words[w] &= plane[w] ^ invert;
      }
    }
    // Complemented planes can select the zero tail bits of the last input
    // word, which are not samples; from_words masks them off, so counting
    // the adopted stream (still cache-hot) gives the exact Case_I.
    BitStream mask = BitStream::from_words(sample_count_, std::move(mask_words));
    counts_[c] = mask.popcount();
    masks_.push_back(std::move(mask));
  }
}

const BitStream& CombinationIndex::mask(std::size_t c) const {
  if (c >= masks_.size()) {
    throw InvalidArgument("CombinationIndex::mask: combination out of range");
  }
  return masks_[c];
}

std::size_t CombinationIndex::count(std::size_t c) const {
  if (c >= counts_.size()) {
    throw InvalidArgument("CombinationIndex::count: combination out of range");
  }
  return counts_[c];
}

std::size_t CombinationIndex::id(std::size_t sample) const {
  if (sample >= sample_count_) {
    throw InvalidArgument("CombinationIndex::id: sample out of range");
  }
  for (std::size_t c = 0; c < masks_.size(); ++c) {
    if (masks_[c][sample]) return c;
  }
  // Unreachable: the masks partition the sample axis.
  throw InvalidArgument("CombinationIndex::id: sample not classified");
}

}  // namespace glva::logic
