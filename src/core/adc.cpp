#include "core/adc.h"

#include <cstring>
#include <span>

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
  std::vector<std::string> tracked = input_ids;
  tracked.push_back(output_id);
  store::DigitizingSink sink(std::move(tracked), threshold);
  sink.begin(trace.species_names());
  std::vector<std::span<const double>> columns;
  columns.reserve(trace.species_count());
  for (std::size_t s = 0; s < trace.species_count(); ++s) {
    columns.emplace_back(trace.series(s));
  }
  sink.append_block(trace.times(), columns);
  sink.finish();
  return take_digitized(sink, input_ids.size());
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
