#pragma once

#include "sim/simulator.h"

namespace glva::sim {

/// Gillespie's direct method (exact SSA) [Gillespie 1977], the algorithm
/// the paper's methodology relies on for trace generation. Propensities of
/// only the affected reactions are recomputed after each firing, with a
/// periodic full re-summation to bound floating-point drift in the running
/// total.
class DirectMethod final : public StochasticSimulator {
public:
  [[nodiscard]] std::string name() const override { return "direct"; }

protected:
  void simulate_interval(const crn::ReactionNetwork& network,
                         std::vector<double>& values, double t_begin,
                         double t_end, Rng& rng, TraceSampler& sampler,
                         PropensityMemo& memo) const override;
};

}  // namespace glva::sim
