#pragma once

#include "sim/simulator.h"

namespace glva::sim {

/// Gibson–Bruck next-reaction method: an exact SSA that keeps one tentative
/// absolute firing time per reaction in an indexed priority queue and, on
/// each firing, rescales the tentative times of only the affected
/// reactions. Statistically equivalent to the direct method; asymptotically
/// faster for networks with many reactions and sparse coupling.
class NextReactionMethod final : public StochasticSimulator {
public:
  [[nodiscard]] std::string name() const override { return "next-reaction"; }

protected:
  void simulate_interval(const crn::ReactionNetwork& network,
                         std::vector<double>& values, double t_begin,
                         double t_end, Rng& rng, TraceSampler& sampler,
                         PropensityMemo& memo) const override;
};

}  // namespace glva::sim
