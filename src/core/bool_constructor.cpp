#include "core/bool_constructor.h"

#include "logic/quine_mccluskey.h"
#include "util/errors.h"

namespace glva::core {

BoolConstruction construct_bool_expr(const VariationAnalysis& variation,
                                     double fov_ud,
                                     std::vector<std::string> input_names) {
  if (!(fov_ud > 0.0 && fov_ud <= 1.0)) {  // NaN fails too
    throw InvalidArgument("construct_bool_expr: FOV_UD must be in (0, 1]");
  }
  const std::size_t n = variation.input_count;
  if (input_names.size() != n) {
    throw InvalidArgument("construct_bool_expr: need one name per input");
  }

  BoolConstruction result{
      {},
      logic::TruthTable(n),
      logic::SopExpr(n, input_names),
      logic::SopExpr(n, input_names),
      100.0,
      {},
      {}};
  result.outcomes.resize(variation.records.size());

  double fov_sum = 0.0;
  const auto nc = static_cast<double>(variation.records.size());

  for (std::size_t c = 0; c < variation.records.size(); ++c) {
    const VariationRecord& record = variation.records[c];
    FilterOutcome& outcome = result.outcomes[c];
    outcome.combination = c;

    if (record.case_count == 0) {
      outcome.verdict = CaseVerdict::kUnobserved;
      result.unobserved.push_back(c);
      continue;
    }
    // Equation (1): stability filter.
    outcome.filter1_pass = record.fov_est < fov_ud;
    // Equation (2): majority filter.
    outcome.filter2_pass =
        static_cast<double>(record.high_count) >
        static_cast<double>(record.case_count) / 2.0;

    if (outcome.filter1_pass && outcome.filter2_pass) {
      outcome.verdict = CaseVerdict::kHigh;
      result.extracted.set_output(c, true);
      fov_sum += record.fov_est;
    } else if (outcome.filter2_pass) {
      // Majority high but too oscillatory: the paper's Figure 3 case — the
      // unstable state is excluded from the expression.
      outcome.verdict = CaseVerdict::kUnstable;
      result.unstable.push_back(c);
    } else {
      outcome.verdict = CaseVerdict::kLow;
    }
  }

  // Equation (3).
  result.fitness_percent = 100.0 - (fov_sum / nc) * 100.0;

  result.canonical = logic::SopExpr::canonical(result.extracted, input_names);
  // Unobserved combinations carry no evidence either way: minimize with
  // them as don't-cares so the printed expression does not invent a 0.
  result.minimized =
      logic::minimize(result.extracted, std::move(input_names),
                      result.unobserved);
  return result;
}

}  // namespace glva::core
