#include "sim/ssa_next_reaction.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "sim/indexed_priority_queue.h"
#include "sim/propensity_memo.h"

namespace glva::sim {

void NextReactionMethod::simulate_interval(const crn::ReactionNetwork& network,
                                           std::vector<double>& values,
                                           double t_begin, double t_end,
                                           Rng& rng, TraceSampler& sampler,
                                           PropensityMemo& memo) const {
  const std::size_t m = network.reaction_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // The queue is rebuilt per interval: input clamps changed at the phase
  // boundary invalidate tentative times anyway, and intervals are long
  // relative to the rebuild cost.
  std::vector<double> propensities(m);
  IndexedPriorityQueue queue(m);
  for (std::size_t r = 0; r < m; ++r) {
    propensities[r] = memo.propensity(r, values);
    queue.update(r, propensities[r] > 0.0
                        ? t_begin + rng.exponential(propensities[r])
                        : kInf);
  }

  double t = t_begin;
  std::uint64_t local_steps = 0;
  while (queue.top_value() < t_end) {
    const std::size_t j = queue.top_key();
    t = queue.top_value();
    sampler.advance_before(t, values);
    network.fire(j, values);
    ++local_steps;

    for (std::size_t affected : network.affected_reactions(j)) {
      const double old_propensity = propensities[affected];
      const double fresh = memo.propensity(affected, values);
      propensities[affected] = fresh;
      if (affected == j) continue;  // handled below with a fresh draw
      const double old_time = queue.value(affected);
      double new_time = kInf;
      if (fresh > 0.0) {
        if (old_propensity > 0.0 && old_time < kInf) {
          // Gibson–Bruck reuse: rescale the remaining waiting time.
          new_time = t + (old_propensity / fresh) * (old_time - t);
        } else {
          new_time = t + rng.exponential(fresh);
        }
      }
      queue.update(affected, new_time);
    }

    // The reaction that fired always needs a fresh exponential. When j does
    // not affect itself (e.g. pure production ∅ -> X with constant law), its
    // propensity is unchanged but its tentative time was consumed.
    const double a_j = propensities[j];
    queue.update(j, a_j > 0.0 ? t + rng.exponential(a_j) : kInf);
  }
  sampler.advance_before(t_end, values);

  // Batched like the direct method: one registry write per interval.
  if (local_steps > 0) {
    static obs::Counter& steps = obs::counter("sim.ssa.steps");
    static obs::Counter& firings = obs::counter("sim.ssa.firings");
    steps.add(local_steps);
    firings.add(local_steps);
  }
}

}  // namespace glva::sim
