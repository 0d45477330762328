#include "sim/ssa_direct.h"

#include <cmath>

#include "obs/metrics.h"
#include "sim/propensity_memo.h"

namespace glva::sim {

void DirectMethod::simulate_interval(const crn::ReactionNetwork& network,
                                     std::vector<double>& values,
                                     double t_begin, double t_end, Rng& rng,
                                     TraceSampler& sampler,
                                     PropensityMemo& memo) const {
  const std::size_t m = network.reaction_count();
  std::vector<double> propensities(m);
  double total = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    propensities[r] = memo.propensity(r, values);
    total += propensities[r];
  }

  double t = t_begin;
  std::size_t steps_since_resum = 0;
  std::uint64_t local_steps = 0;
  constexpr std::size_t kResumInterval = 8192;

  while (total > 0.0) {
    const double tau = rng.exponential(total);
    if (t + tau >= t_end) break;  // state holds through the interval end
    t += tau;
    sampler.advance_before(t, values);

    // Select reaction j with probability propensities[j] / total.
    double target = rng.uniform() * total;
    std::size_t j = 0;
    for (; j + 1 < m; ++j) {
      if (target < propensities[j]) break;
      target -= propensities[j];
    }
    network.fire(j, values);
    ++local_steps;

    // Update only the reactions whose propensity can have changed.
    for (std::size_t affected : network.affected_reactions(j)) {
      const double fresh = memo.propensity(affected, values);
      total += fresh - propensities[affected];
      propensities[affected] = fresh;
    }

    if (++steps_since_resum >= kResumInterval) {
      // Re-sum to cancel accumulated floating-point drift.
      total = 0.0;
      for (std::size_t r = 0; r < m; ++r) total += propensities[r];
      steps_since_resum = 0;
    }
    if (total < 0.0) total = 0.0;
  }
  sampler.advance_before(t_end, values);

  // One registry write per interval, not per event: the SSA inner loop
  // stays untouched by instrumentation (the direct method fires exactly
  // one reaction per step).
  if (local_steps > 0) {
    static obs::Counter& steps = obs::counter("sim.ssa.steps");
    static obs::Counter& firings = obs::counter("sim.ssa.firings");
    steps.add(local_steps);
    firings.add(local_steps);
  }
}

}  // namespace glva::sim
