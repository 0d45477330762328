#pragma once

#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "sim/trace.h"
#include "store/digitizing_sink.h"

/// Analog-to-digital conversion — the ADC sub-procedure of Algorithm 1
/// (line 4). Converts analog species amounts into logic levels using the
/// threshold value, after which "the exact concentration of proteins are no
/// longer needed to obtain the Boolean logic of a genetic circuit".
///
/// Two representations of the digitized streams exist side by side:
/// `DigitalData` (one `std::vector<bool>` per stream — the reference
/// implementation the tests hold production to) and `PackedDigitalData`
/// (one `logic::BitStream` per stream — 64 samples per word, the
/// production path of the analysis stage). Both digitize identically bit
/// for bit; see `docs/ANALYSIS.md` for the packed layout.
namespace glva::store {
class SpillReader;  // store/spill_reader.h (load_digitized's source)
}  // namespace glva::store

namespace glva::core {

/// Digitize one analog series: sample k is logic-1 iff analog[k] >=
/// threshold (the comparison is inclusive). `analog` is in molecules on
/// the trace's uniform sample grid; `threshold` is ThVAL in molecules and
/// must be positive (throws glva::InvalidArgument otherwise). O(samples).
[[nodiscard]] std::vector<bool> adc(const std::vector<double>& analog,
                                    double threshold);

/// Bit-packed digitization of one analog series: identical comparison and
/// bit order as `adc`, but each group of 64 samples is assembled in a
/// register (SIMD compare where available) and stored with one word write
/// instead of 64 `vector<bool>` proxy read-modify-writes — the entry
/// point of the packed analysis path. Same precondition (threshold > 0,
/// throws glva::InvalidArgument); postcondition: result.unpack() ==
/// adc(analog, threshold). O(samples).
[[nodiscard]] logic::BitStream adc_packed(const std::vector<double>& analog,
                                          double threshold);

/// The digitized I/O streams Algorithm 1 works on: one bit stream per
/// chosen input species (MSB first) plus the chosen output species.
struct DigitalData {
  std::vector<std::vector<bool>> inputs;  ///< [input][sample]
  std::vector<bool> output;               ///< [sample]

  [[nodiscard]] std::size_t input_count() const noexcept { return inputs.size(); }
  [[nodiscard]] std::size_t sample_count() const noexcept { return output.size(); }
};

/// Bit-packed variant of `DigitalData`: same streams, same MSB-first input
/// order, one `logic::BitStream` per stream (64 samples per word, zeroed
/// tail). Produced by `digitize_packed`/`pack`, consumed by the run
/// reduction (`analyze_runs`) and the property check.
struct PackedDigitalData {
  std::vector<logic::BitStream> inputs;  ///< [input], MSB first
  logic::BitStream output;

  [[nodiscard]] std::size_t input_count() const noexcept { return inputs.size(); }
  [[nodiscard]] std::size_t sample_count() const noexcept { return output.size(); }
};

/// Digitize the selected I/O species of a simulation trace. The caller
/// chooses input and output species freely — the paper highlights that
/// selectable IS/OS allows "Boolean logic analysis on the entire circuit as
/// well as on the intermediate circuit components".
///
/// Throws glva::InvalidArgument for unknown ids, an empty input list, or a
/// non-positive threshold. O(input_count · samples).
[[nodiscard]] DigitalData digitize(const sim::Trace& trace,
                                   const std::vector<std::string>& input_ids,
                                   const std::string& output_id,
                                   double threshold);

/// Packed twin of `digitize`: same selection, validation, and bit values,
/// emitting `PackedDigitalData` without materializing any `vector<bool>`
/// intermediate. Postcondition: unpack(digitize_packed(...)) ==
/// digitize(...). O(input_count · samples).
[[nodiscard]] PackedDigitalData digitize_packed(
    const sim::Trace& trace, const std::vector<std::string>& input_ids,
    const std::string& output_id, double threshold);

/// Lossless conversions between the two representations, which the
/// equivalence tests hold the production path to the reference with.
/// O(input_count · samples).
[[nodiscard]] PackedDigitalData pack(const DigitalData& data);
[[nodiscard]] DigitalData unpack(const PackedDigitalData& data);

/// Assemble the analyzer's input from a fused sampler→ADC run: moves the
/// sink's planes out in tracking order — planes [0, input_count) are the
/// inputs (MSB first), plane input_count is the output. The single owner
/// of that ordering convention (core::acquire and bench_trace_io both go
/// through here). Throws glva::InvalidArgument
/// when the sink tracks fewer than input_count + 1 species.
[[nodiscard]] PackedDigitalData take_digitized(store::DigitizingSink& sink,
                                               std::size_t input_count);

/// Assemble the analyzer's input from a spilled bit-plane `.glvt` file
/// (the `DigitizingSink` spill tee's artifact): `SpillReader::read_planes`
/// hands the packed words back word-aligned, so the planes reach
/// `analyze_packed` with no double materialization and no re-thresholding
/// — bit-identical to the in-memory `take_digitized` handoff for the same
/// run. Plane order follows the same convention (inputs MSB-first, then
/// the output). `threshold` must bit-match the file header's recorded
/// ThVAL: planes digitized at a different threshold are a different
/// experiment, so a mismatch throws glva::InvalidArgument rather than
/// silently relabeling them. Throws glva::StorageError for an analog file
/// and glva::InvalidArgument when the file tracks fewer than
/// input_count + 1 species.
[[nodiscard]] PackedDigitalData load_digitized(store::SpillReader& reader,
                                               std::size_t input_count,
                                               double threshold);

}  // namespace glva::core
