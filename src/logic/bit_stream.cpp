#include "logic/bit_stream.h"

#include <bit>

#include "logic/simd/kernel_set.h"
#include "util/errors.h"

namespace glva::logic {

BitStream BitStream::pack(const std::vector<bool>& bits) {
  BitStream stream(bits.size());
  for (std::size_t w = 0; w < stream.words_.size(); ++w) {
    const std::size_t base = w * kWordBits;
    const std::size_t limit = std::min(kWordBits, bits.size() - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < limit; ++j) {
      word |= static_cast<std::uint64_t>(bits[base + j]) << j;
    }
    stream.words_[w] = word;
  }
  return stream;
}

BitStream BitStream::from_words(std::size_t size,
                                std::vector<std::uint64_t> words) {
  if (words.size() != (size + kWordBits - 1) / kWordBits) {
    throw InvalidArgument("BitStream::from_words: word count does not match");
  }
  BitStream stream;
  stream.size_ = size;
  stream.words_ = std::move(words);
  if (!stream.words_.empty()) stream.words_.back() &= stream.tail_mask();
  return stream;
}

std::vector<bool> BitStream::unpack() const {
  std::vector<bool> bits(size_);
  for (std::size_t k = 0; k < size_; ++k) bits[k] = (*this)[k];
  return bits;
}

void BitStream::push_back(bool bit) {
  const std::size_t index = size_++;
  if (index % kWordBits == 0) words_.push_back(0);
  if (bit) words_.back() |= std::uint64_t{1} << (index % kWordBits);
}

void BitStream::append_word(std::uint64_t word) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_word: size() must be a word multiple");
  }
  words_.push_back(word);
  size_ += kWordBits;
}

void BitStream::append_words(std::span<const std::uint64_t> words) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_words: size() must be a word multiple");
  }
  words_.insert(words_.end(), words.begin(), words.end());
  size_ += words.size() * kWordBits;
}

void BitStream::append_bits(std::uint64_t word, std::size_t count) {
  if (size_ % kWordBits != 0) {
    throw InvalidArgument(
        "BitStream::append_bits: size() must be a word multiple");
  }
  if (count > kWordBits) {
    throw InvalidArgument("BitStream::append_bits: count must be <= 64");
  }
  if (count == 0) return;
  size_ += count;
  words_.push_back(word & tail_mask());
}

bool BitStream::test(std::size_t index) const {
  if (index >= size_) {
    throw InvalidArgument("BitStream::test: index out of range");
  }
  return (*this)[index];
}

void BitStream::set(std::size_t index, bool value) {
  if (index >= size_) {
    throw InvalidArgument("BitStream::set: index out of range");
  }
  const std::uint64_t bit = std::uint64_t{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= bit;
  } else {
    words_[index / kWordBits] &= ~bit;
  }
}

std::uint64_t BitStream::word(std::size_t w) const {
  if (w >= words_.size()) {
    throw InvalidArgument("BitStream::word: index out of range");
  }
  return words_[w];
}

void BitStream::set_word(std::size_t w, std::uint64_t value) {
  if (w >= words_.size()) {
    throw InvalidArgument("BitStream::set_word: index out of range");
  }
  if (w + 1 == words_.size()) value &= tail_mask();
  words_[w] = value;
}

std::size_t BitStream::popcount() const {
  return simd::active().popcount_words(words_.data(), words_.size());
}

std::size_t BitStream::transition_count() const {
  if (size_ < 2) return 0;
  return simd::active().transition_count_words(words_.data(), words_.size(),
                                               tail_mask());
}

namespace {

/// Ones at bit positions [from, 64) of a word; from < 64.
constexpr std::uint64_t bits_from(std::size_t from) noexcept {
  return ~std::uint64_t{0} << from;
}

/// Ones at bit positions [0, through] of a word; through < 64.
constexpr std::uint64_t bits_through(std::size_t through) noexcept {
  return ~std::uint64_t{0} >> (BitStream::kWordBits - 1 - through);
}

}  // namespace

void BitStream::require_range(std::size_t begin, std::size_t end,
                              const char* what) const {
  if (begin > end || end > size_) {
    throw InvalidArgument(std::string(what) + ": range out of bounds");
  }
}

std::size_t BitStream::popcount(std::size_t begin, std::size_t end) const {
  require_range(begin, end, "BitStream::popcount");
  if (begin == end) return 0;
  const std::size_t first = begin / kWordBits;
  const std::size_t last = (end - 1) / kWordBits;
  const std::uint64_t head = words_[first] & bits_from(begin % kWordBits);
  const std::uint64_t tail = bits_through((end - 1) % kWordBits);
  if (first == last) return static_cast<std::size_t>(std::popcount(head & tail));
  return static_cast<std::size_t>(std::popcount(head)) +
         simd::active().popcount_words(words_.data() + first + 1,
                                       last - first - 1) +
         static_cast<std::size_t>(std::popcount(words_[last] & tail));
}

std::size_t BitStream::transition_count(std::size_t begin,
                                        std::size_t end) const {
  require_range(begin, end, "BitStream::transition_count");
  if (end - begin < 2) return 0;
  const std::size_t first = begin / kWordBits;
  const std::size_t last = (end - 1) / kWordBits;
  // The kernel counts every sample in (64·first, end) that differs from
  // its predecessor; take back those at or before `begin`, whose
  // predecessors all sit in word `first`.
  std::size_t count = simd::active().transition_count_words(
      words_.data() + first, last - first + 1,
      bits_through((end - 1) % kWordBits));
  const std::size_t below = begin % kWordBits;
  if (below != 0) {
    const std::uint64_t word = words_[first];
    count -= static_cast<std::size_t>(std::popcount(
        (word ^ (word << 1)) & bits_through(below) & ~std::uint64_t{1}));
  }
  return count;
}

std::size_t BitStream::find_zero(std::size_t begin, std::size_t end) const {
  require_range(begin, end, "BitStream::find_zero");
  if (begin == end) return end;
  const std::size_t first = begin / kWordBits;
  const std::size_t last = (end - 1) / kWordBits;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t zeros = ~words_[w];
    if (w == first) zeros &= bits_from(begin % kWordBits);
    if (w == last) zeros &= bits_through((end - 1) % kWordBits);
    if (zeros != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(zeros));
    }
  }
  return end;
}

namespace {

/// Shared size check for the binary word-parallel operations.
void require_same_size(const BitStream& a, const BitStream& b,
                       const char* what) {
  if (a.size() != b.size()) {
    throw InvalidArgument(std::string(what) + ": stream sizes differ");
  }
}

template <typename Op>
BitStream combine(const BitStream& a, const BitStream& b, Op op,
                  const char* what) {
  require_same_size(a, b, what);
  BitStream out(a.size());
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    out.set_word(w, op(a.word(w), b.word(w)));
  }
  return out;
}

}  // namespace

BitStream BitStream::operator&(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x & y; },
                 "BitStream::operator&");
}

BitStream BitStream::operator|(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x | y; },
                 "BitStream::operator|");
}

BitStream BitStream::operator^(const BitStream& other) const {
  return combine(*this, other,
                 [](std::uint64_t x, std::uint64_t y) { return x ^ y; },
                 "BitStream::operator^");
}

BitStream BitStream::operator~() const {
  BitStream out(size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.set_word(w, ~words_[w]);  // set_word re-masks the tail
  }
  return out;
}

std::size_t and_popcount(const BitStream& a, const BitStream& b) {
  require_same_size(a, b, "and_popcount");
  const std::span<const std::uint64_t> wa = a.words();
  const std::span<const std::uint64_t> wb = b.words();
  return simd::active().and_popcount_words(wa.data(), wb.data(), wa.size());
}

}  // namespace glva::logic
