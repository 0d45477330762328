#include "sim/ssa_tau_leap.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "sim/propensity_memo.h"

namespace glva::sim {

namespace {

/// Exact direct-method steps used when leaps degenerate; advances at most
/// `max_steps` events or until `t_end`. Returns the new time. Each event
/// is counted into `fired` (one step, one firing).
double exact_steps(const crn::ReactionNetwork& network,
                   PropensityMemo& memo, std::vector<double>& values,
                   double t, double t_end, Rng& rng, TraceSampler& sampler,
                   std::size_t max_steps, std::uint64_t& fired) {
  const std::size_t m = network.reaction_count();
  for (std::size_t step = 0; step < max_steps; ++step) {
    double total = 0.0;
    for (std::size_t r = 0; r < m; ++r) total += memo.propensity(r, values);
    if (total <= 0.0) return t_end;
    const double tau = rng.exponential(total);
    if (t + tau >= t_end) return t_end;
    t += tau;
    sampler.advance_before(t, values);
    double target = rng.uniform() * total;
    std::size_t j = 0;
    for (; j + 1 < m; ++j) {
      const double a = memo.propensity(j, values);
      if (target < a) break;
      target -= a;
    }
    network.fire(j, values);
    ++fired;
  }
  return t;
}

}  // namespace

void TauLeaping::simulate_interval(const crn::ReactionNetwork& network,
                                   std::vector<double>& values, double t_begin,
                                   double t_end, Rng& rng,
                                   TraceSampler& sampler,
                                   PropensityMemo& memo) const {
  const std::size_t m = network.reaction_count();
  const std::size_t n = network.species_count();
  std::vector<double> propensities(m);
  std::vector<double> mu(n);     // expected net change rate per species
  std::vector<double> sigma2(n); // variance rate per species
  std::vector<double> proposed(values.size());
  std::vector<std::uint64_t> counts(m);

  double t = t_begin;
  std::uint64_t local_steps = 0;
  std::uint64_t local_firings = 0;
  while (t < t_end) {
    double total = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      propensities[r] = memo.propensity(r, values);
      total += propensities[r];
    }
    if (total <= 0.0) break;

    // Cao et al. tau selection on species-level drift/noise.
    std::fill(mu.begin(), mu.end(), 0.0);
    std::fill(sigma2.begin(), sigma2.end(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      if (propensities[r] <= 0.0) continue;
      for (const auto& change : network.reaction(r).changes) {
        mu[change.species] += change.delta * propensities[r];
        sigma2[change.species] += change.delta * change.delta * propensities[r];
      }
    }
    double tau = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; ++s) {
      if (mu[s] == 0.0 && sigma2[s] == 0.0) continue;
      const double bound = std::max(epsilon_ * values[s], 1.0);
      if (mu[s] != 0.0) tau = std::min(tau, bound / std::fabs(mu[s]));
      if (sigma2[s] > 0.0) tau = std::min(tau, bound * bound / sigma2[s]);
    }

    // Degenerate leap: cheaper to take exact steps.
    if (tau < 10.0 / total) {
      std::uint64_t fired = 0;
      t = exact_steps(network, memo, values, t, t_end, rng, sampler, 128,
                      fired);
      local_steps += fired;
      local_firings += fired;
      continue;
    }
    tau = std::min(tau, t_end - t);

    // Propose Poisson firing counts; halve tau until no species goes
    // negative (rejection keeps the leap unbiased enough for this use).
    bool accepted = false;
    while (!accepted && tau > 1e-12) {
      for (std::size_t r = 0; r < m; ++r) {
        counts[r] = propensities[r] > 0.0 ? rng.poisson(propensities[r] * tau)
                                          : 0;
      }
      proposed = values;
      for (std::size_t r = 0; r < m; ++r) {
        if (counts[r] == 0) continue;
        // Raw stoichiometry (not network.fire, which clamps at zero): a
        // negative proposal must be detected and rejected, not hidden.
        for (const auto& change : network.reaction(r).changes) {
          proposed[change.species] +=
              change.delta * static_cast<double>(counts[r]);
        }
      }
      accepted = true;
      for (std::size_t s = 0; s < n; ++s) {
        if (proposed[s] < 0.0) {
          accepted = false;
          break;
        }
      }
      if (!accepted) tau *= 0.5;
    }
    if (!accepted) {
      std::uint64_t fired = 0;
      t = exact_steps(network, memo, values, t, t_end, rng, sampler, 128,
                      fired);
      local_steps += fired;
      local_firings += fired;
      continue;
    }
    t += tau;
    sampler.advance_before(t, values);
    values = proposed;
    ++local_steps;  // one leap
    for (std::size_t r = 0; r < m; ++r) local_firings += counts[r];
  }
  sampler.advance_before(t_end, values);

  // One registry write per interval; a leap is one step with many firings.
  if (local_steps > 0) {
    static obs::Counter& steps = obs::counter("sim.ssa.steps");
    static obs::Counter& firings = obs::counter("sim.ssa.firings");
    steps.add(local_steps);
    firings.add(local_firings);
  }
}

}  // namespace glva::sim
