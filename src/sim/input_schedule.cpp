#include "sim/input_schedule.h"

#include "util/errors.h"

namespace glva::sim {

void InputSchedule::add_phase(double start_time, std::vector<double> levels) {
  if (levels.size() != input_ids_.size()) {
    throw InvalidArgument("InputSchedule: phase level count (" +
                          std::to_string(levels.size()) +
                          ") does not match input count (" +
                          std::to_string(input_ids_.size()) + ")");
  }
  if (!phases_.empty() && start_time <= phases_.back().start_time) {
    throw InvalidArgument("InputSchedule: phases must start in increasing order");
  }
  phases_.push_back(InputPhase{start_time, std::move(levels)});
}

const InputPhase& InputSchedule::phase_at(double t) const {
  return phases_[phase_index_at(t)];
}

std::size_t InputSchedule::phase_index_at(double t) const {
  if (phases_.empty() || t < phases_.front().start_time) {
    throw InvalidArgument("InputSchedule: no phase active at t=" +
                          std::to_string(t));
  }
  std::size_t index = 0;
  for (std::size_t i = 1; i < phases_.size(); ++i) {
    if (phases_[i].start_time <= t) {
      index = i;
    } else {
      break;
    }
  }
  return index;
}

InputSchedule InputSchedule::combination_sweep(
    std::vector<std::string> input_ids, double total_time, double high_level) {
  const std::size_t n = input_ids.size();
  if (n == 0) throw InvalidArgument("combination_sweep: no inputs");
  if (n > 16) throw InvalidArgument("combination_sweep: too many inputs");
  require_finite_positive(total_time, "combination_sweep: total_time");
  require_finite_positive(high_level, "combination_sweep: high_level");
  const std::size_t combos = static_cast<std::size_t>(1) << n;
  const double hold = total_time / static_cast<double>(combos);

  InputSchedule schedule(std::move(input_ids));
  for (std::size_t c = 0; c < combos; ++c) {
    std::vector<double> levels(n, 0.0);
    for (std::size_t bit = 0; bit < n; ++bit) {
      // input_ids[0] is the most significant bit of the combination.
      const bool high = ((c >> (n - 1 - bit)) & 1U) != 0;
      levels[bit] = high ? high_level : 0.0;
    }
    schedule.add_phase(static_cast<double>(c) * hold, std::move(levels));
  }
  return schedule;
}

InputSchedule InputSchedule::constant(std::vector<std::string> input_ids,
                                      std::vector<double> levels) {
  InputSchedule schedule(std::move(input_ids));
  schedule.add_phase(0.0, std::move(levels));
  return schedule;
}

}  // namespace glva::sim
