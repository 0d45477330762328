#pragma once

#include "sim/simulator.h"

namespace glva::sim {

/// Explicit tau-leaping (Gillespie 2001, with the Cao–Gillespie–Petzold
/// step-size control): fires Poisson-distributed batches of reactions per
/// leap instead of single events. Approximate — used in GLVA only for the
/// simulator-ablation benchmark; the paper's methodology assumes an exact
/// SSA. Falls back to exact direct-method steps whenever the selected leap
/// would be smaller than a few expected event gaps, and halves the leap on
/// (rare) negative-population proposals.
class TauLeaping final : public StochasticSimulator {
public:
  /// `epsilon` bounds the relative propensity change per leap (default
  /// 0.03, the value recommended by Cao et al.).
  explicit TauLeaping(double epsilon = 0.03) : epsilon_(epsilon) {}

  [[nodiscard]] std::string name() const override { return "tau-leap"; }

protected:
  void simulate_interval(const crn::ReactionNetwork& network,
                         std::vector<double>& values, double t_begin,
                         double t_end, Rng& rng, TraceSampler& sampler,
                         PropensityMemo& memo) const override;

private:
  double epsilon_;
};

}  // namespace glva::sim
