#pragma once

#include <cstddef>
#include <vector>

#include "core/case_analyzer.h"

/// The VariationAnalyzer sub-procedure of Algorithm 1 (line 6): for each
/// input combination it "calculates the number of times a logic-1 appears"
/// (HIGH_O) and "how many times the output varies, i.e. changing 0-to-1 and
/// 1-to-0" (O_Var).
///
/// It exists in a reference form (a per-bit loop over the CaseAnalyzer's
/// materialized streams) and the production form `analyze_runs`, which
/// counts lines 5 and 6 together along the input runs of packed planes.
/// Both produce bit-identical VariationAnalysis values: HIGH_O, O_Var and
/// Case_I are integers, and FOV_EST divides the same integers in the same
/// order.
namespace glva::core {

/// Per-combination stability statistics.
struct VariationRecord {
  std::size_t combination = 0;
  std::size_t case_count = 0;       ///< Case_I[i], copied for convenience
  std::size_t high_count = 0;       ///< HIGH_O[i]: logic-1 samples
  std::size_t variation_count = 0;  ///< O_Var[i]: 0->1 and 1->0 transitions
  /// FOV_EST[i] = O_Var[i] / Case_I[i] (equation (1)); 0 when unobserved.
  double fov_est = 0.0;
};

struct VariationAnalysis {
  std::size_t input_count = 0;
  std::vector<VariationRecord> records;  ///< indexed by combination
};

/// Count highs and transitions within each per-combination output stream —
/// the reference implementation, one pass over every logged bit.
/// Transitions are counted inside the logged stream exactly as the paper's
/// example does (Figure 2(b): stream "0...010...01..1" for case 00 has
/// O_Var = 2). Postcondition: records.size() == cases.cases.size(), in the
/// same combination order, with fov_est in [0, 1) wherever case_count > 0.
/// O(samples) total across combinations.
[[nodiscard]] VariationAnalysis analyze_variation(const CaseAnalysis& cases);

/// Lines 5 and 6 of Algorithm 1 in one pass over packed planes, along
/// the input runs of logic::InputRunWalker. Each run of combination c and
/// length L adds L to Case_I[c], the run's 1-bits to HIGH_O[c] and its
/// in-run output transitions to O_Var[c]. A run that resumes c after
/// other combinations adds one more to O_Var[c] when its first output bit
/// differs from the last bit c logged before the gap, which is the
/// compacted-stream semantics of the reference (docs/ANALYSIS.md).
/// Bit-identical to analyze_variation(analyze_cases(unpack(data))).
/// Throws glva::InvalidArgument for no inputs, more than 16, or streams of
/// different lengths. O(N · samples / 64) plus O(N + 1) per run.
[[nodiscard]] VariationAnalysis analyze_runs(const PackedDigitalData& data);

}  // namespace glva::core
