#include "core/adc.h"

#include <algorithm>
#include <cstring>

#include "logic/word_pack.h"
#include "store/spill_reader.h"
#include "util/errors.h"

namespace glva::core {

namespace {

void require_positive_threshold(double threshold, const char* what) {
  if (!(threshold > 0.0)) {  // NaN fails too
    throw InvalidArgument(std::string(what) + ": threshold must be positive");
  }
}

}  // namespace

std::vector<bool> adc(const std::vector<double>& analog, double threshold) {
  require_positive_threshold(threshold, "adc");
  std::vector<bool> digital(analog.size());
  for (std::size_t k = 0; k < analog.size(); ++k) {
    digital[k] = analog[k] >= threshold;
  }
  return digital;
}

logic::BitStream adc_packed(const std::vector<double>& analog,
                            double threshold) {
  require_positive_threshold(threshold, "adc_packed");
  constexpr std::size_t kWordBits = logic::BitStream::kWordBits;
  const std::size_t full_words = analog.size() / kWordBits;
  std::vector<std::uint64_t> words((analog.size() + kWordBits - 1) /
                                   kWordBits);
  const double* samples = analog.data();
  // One dispatched block call packs every full word (the active SIMD
  // kernel compares 2/4/8 doubles per instruction); the ragged tail goes
  // through the length-taking packer so no out-of-bounds doubles are read.
  if (full_words > 0) {
    logic::simd::active().pack_threshold_block(samples, full_words, threshold,
                                               words.data());
  }
  const std::size_t base = full_words * kWordBits;
  if (base < analog.size()) {
    words[full_words] = logic::pack_threshold_bits(
        samples + base, analog.size() - base, threshold);
  }
  return logic::BitStream::from_words(analog.size(), std::move(words));
}

DigitalData digitize(const sim::Trace& trace,
                     const std::vector<std::string>& input_ids,
                     const std::string& output_id, double threshold) {
  if (input_ids.empty()) {
    throw InvalidArgument("digitize: at least one input species is required");
  }
  DigitalData data;
  data.inputs.reserve(input_ids.size());
  for (const auto& id : input_ids) {
    data.inputs.push_back(adc(trace.series(id), threshold));
  }
  data.output = adc(trace.series(output_id), threshold);
  return data;
}

PackedDigitalData digitize_packed(const sim::Trace& trace,
                                  const std::vector<std::string>& input_ids,
                                  const std::string& output_id,
                                  double threshold) {
  if (input_ids.empty()) {
    throw InvalidArgument(
        "digitize_packed: at least one input species is required");
  }
  PackedDigitalData data;
  data.inputs.reserve(input_ids.size());
  for (const auto& id : input_ids) {
    data.inputs.push_back(adc_packed(trace.series(id), threshold));
  }
  data.output = adc_packed(trace.series(output_id), threshold);
  return data;
}

PackedDigitalData pack(const DigitalData& data) {
  PackedDigitalData packed;
  packed.inputs.reserve(data.inputs.size());
  for (const auto& input : data.inputs) {
    packed.inputs.push_back(logic::BitStream::pack(input));
  }
  packed.output = logic::BitStream::pack(data.output);
  return packed;
}

DigitalData unpack(const PackedDigitalData& data) {
  DigitalData unpacked;
  unpacked.inputs.reserve(data.inputs.size());
  for (const auto& input : data.inputs) {
    unpacked.inputs.push_back(input.unpack());
  }
  unpacked.output = data.output.unpack();
  return unpacked;
}

PackedDigitalData take_digitized(store::DigitizingSink& sink,
                                 std::size_t input_count) {
  if (sink.planes().size() < input_count + 1) {
    throw InvalidArgument(
        "take_digitized: sink tracks fewer species than inputs + output");
  }
  PackedDigitalData data;
  data.inputs.reserve(input_count);
  for (std::size_t i = 0; i < input_count; ++i) {
    data.inputs.push_back(sink.take_plane(i));
  }
  data.output = sink.take_plane(input_count);
  return data;
}

PackedDigitalData load_digitized(store::SpillReader& reader,
                                 std::size_t input_count, double threshold) {
  require_positive_threshold(threshold, "load_digitized");
  // Bit comparison: the planes ARE the digitization — any threshold drift
  // means they describe a different experiment, so there is no tolerance
  // to apply.
  std::uint64_t want_bits = 0;
  std::uint64_t have_bits = 0;
  const double have = reader.threshold();
  std::memcpy(&want_bits, &threshold, sizeof want_bits);
  std::memcpy(&have_bits, &have, sizeof have_bits);
  if (want_bits != have_bits) {
    throw InvalidArgument(
        "load_digitized: file was digitized at a different threshold (" +
        std::to_string(have) + " vs requested " + std::to_string(threshold) +
        "): " + reader.path());
  }
  std::vector<logic::BitStream> planes = reader.read_planes();
  if (planes.size() < input_count + 1) {
    throw InvalidArgument(
        "load_digitized: file tracks fewer species than inputs + output");
  }
  PackedDigitalData data;
  data.inputs.reserve(input_count);
  for (std::size_t i = 0; i < input_count; ++i) {
    data.inputs.push_back(std::move(planes[i]));
  }
  data.output = std::move(planes[input_count]);
  return data;
}

}  // namespace glva::core
