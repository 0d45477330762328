#pragma once

#include <cstddef>
#include <vector>

#include "core/adc.h"

/// The CaseAnalyzer sub-procedure of Algorithm 1 (line 5): "analyzes the
/// number of times each input combination occurs and logs their
/// corresponding output binary data streams".
///
/// `analyze_cases` is the reference implementation: one branch per
/// sample, with the per-combination `vector<bool>` streams materialized.
/// Production counts Case_I per hold (`core::RecordSink`), and the trace
/// path along the input runs (`core::analyze_runs` in
/// variation_analyzer.h); the differential fuzzes in
/// `tests/test_bitstream.cpp` and `tests/test_core.cpp` pin them equal.
namespace glva::core {

/// Per-input-combination observation record.
struct CaseRecord {
  std::size_t combination = 0;  ///< index, input 0 = MSB (paper's "case")
  std::size_t case_count = 0;   ///< Case_I[i]: samples with this combination
  /// The output data stream logged while this combination was applied, in
  /// sample order (its length always equals case_count). Only the
  /// reference `analyze_cases` materializes it; the run reduction leaves
  /// it empty.
  std::vector<bool> output_stream;
};

/// Case analysis over all 2^N combinations (records with case_count == 0
/// are kept so downstream stages can report unobserved combinations).
struct CaseAnalysis {
  std::size_t input_count = 0;
  std::vector<CaseRecord> cases;  ///< size 2^input_count, indexed by combination
};

/// Classify every sample by its digitized input combination and collect the
/// per-combination output streams — the reference implementation, one
/// branch per sample. Postcondition: cases.size() == 2^input_count and the
/// case_count values sum to data.sample_count(). Throws
/// glva::InvalidArgument when input streams have mismatched lengths, there
/// are no inputs, or there are more than 16 of them. O(input_count ·
/// samples) time, O(samples) additional bytes for the logged streams.
[[nodiscard]] CaseAnalysis analyze_cases(const DigitalData& data);

}  // namespace glva::core
