#include "sim/propensity_memo.h"

#include <algorithm>

#include "obs/metrics.h"

namespace glva::sim {

PropensityMemo::PropensityMemo(const crn::ReactionNetwork& network)
    : network_(&network), laws_(network.reaction_count()) {
  std::size_t slots = 0;
  for (std::size_t r = 0; r < laws_.size(); ++r) {
    Law& law = laws_[r];
    std::size_t key_size = 0;
    for (const std::size_t species : network.reaction(r).depends_on) {
      if (network.is_boundary(species)) continue;
      if (key_size < kKeySpecies) law.species[key_size] = species;
      ++key_size;
    }
    if (key_size == 0 || key_size > kKeySpecies) continue;
    law.key_size = key_size;
    law.first_slot = slots;
    slots += kSlotsPerLaw;
  }
  slots_.assign(slots, Slot{kEmpty, 0.0});
}

void PropensityMemo::reset() {
  std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0.0});
}

void PropensityMemo::publish_counters() {
  static obs::Counter& lookups = obs::counter("sim.ssa.propensity_lookups");
  static obs::Counter& evals = obs::counter("sim.ssa.propensity_evals");
  lookups.add(lookups_);
  evals.add(evals_);
  lookups_ = 0;
  evals_ = 0;
}

}  // namespace glva::sim
