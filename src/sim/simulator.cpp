#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/metrics.h"
#include "sim/propensity_memo.h"
#include "sim/ssa_direct.h"
#include "sim/ssa_next_reaction.h"
#include "sim/ssa_tau_leap.h"
#include "store/memory_sink.h"
#include "store/trace_sink.h"
#include "util/errors.h"

namespace glva::sim {

TraceSampler::TraceSampler(const crn::ReactionNetwork& network,
                           double sampling_period, store::TraceSink& sink)
    : sampling_period_(sampling_period),
      sink_(&sink),
      hold_times_(kHoldSamples) {
  require_finite_positive(sampling_period, "sampling_period");
  sink_->begin(network.species_names());
}

std::size_t TraceSampler::end_index(double bound, bool strict) const {
  const auto passes = [&](std::size_t k) {
    const double time = grid_time(k);
    return strict ? time > bound : time >= bound;
  };
  const std::size_t first = next_index_;
  if (passes(first)) return first;
  if (passes(first + 1)) return first + 1;
  // ceil(bound / period) is the end up to rounding; passes() is monotone
  // in k, so step onto the exact end from whichever side the estimate
  // lands. The end is above first + 1, which stops the downward walk.
  const double estimate = std::ceil(bound / sampling_period_);
  std::size_t k = first + 2;
  if (estimate > static_cast<double>(k)) {
    k = estimate < 0x1p63 ? static_cast<std::size_t>(estimate)
                          : std::size_t{1} << 63;
  }
  while (!passes(k)) ++k;
  while (passes(k - 1)) --k;
  return k;
}

void TraceSampler::hold(std::size_t end, const std::vector<double>& values) {
  while (next_index_ < end) {
    const std::size_t n = std::min(end - next_index_, kHoldSamples);
    for (std::size_t i = 0; i < n; ++i) {
      hold_times_[i] = grid_time(next_index_ + i);
    }
    sink_->append_hold(std::span<const double>(hold_times_.data(), n),
                       values);
    next_index_ += n;
    ++holds_;
  }
}

void TraceSampler::advance_before(double t, const std::vector<double>& values) {
  hold(end_index(t, false), values);
}

void TraceSampler::finish(double t_end, const std::vector<double>& values) {
  // Tolerate rounding when t_end is an exact multiple of the period.
  hold(end_index(t_end + sampling_period_ * 1e-9, true), values);
  sink_->finish();
  static obs::Counter& samples = obs::counter("sim.sampler.samples");
  static obs::Counter& holds = obs::counter("sim.sampler.holds");
  samples.add(next_index_);
  holds.add(holds_);
}

Trace StochasticSimulator::run(const crn::ReactionNetwork& network,
                               const InputSchedule& schedule, double duration,
                               const SimulationOptions& options) const {
  store::MemorySink sink;
  run_into(network, schedule, duration, options, sink);
  return sink.take();
}

void StochasticSimulator::run_into(const crn::ReactionNetwork& network,
                                   const InputSchedule& schedule,
                                   double duration,
                                   const SimulationOptions& options,
                                   store::TraceSink& sink) const {
  require_finite_positive(duration, "simulation duration");

  std::vector<double> values = network.initial_values();
  std::vector<std::size_t> input_indices;
  input_indices.reserve(schedule.input_ids().size());
  for (const auto& id : schedule.input_ids()) {
    const std::size_t index = network.species_index(id);
    if (!network.is_boundary(index)) {
      throw InvalidArgument(
          "input species '" + id +
          "' must be a boundary-condition species to be clamped");
    }
    input_indices.push_back(index);
  }

  Rng rng(options.seed);
  TraceSampler sampler(network, options.sampling_period, sink);

  const auto& phases = schedule.phases();
  if (!phases.empty() && phases.front().start_time > 0.0) {
    throw InvalidArgument("input schedule must cover t=0");
  }

  PropensityMemo memo(network);
  double t = 0.0;
  std::size_t phase = 0;
  while (t < duration) {
    // Apply this phase's clamps, then simulate until the next boundary.
    double t_next = duration;
    if (!phases.empty()) {
      for (std::size_t i = 0; i < input_indices.size(); ++i) {
        values[input_indices[i]] = phases[phase].levels[i];
      }
      memo.reset();  // the clamps are the only boundary-species writes
      if (phase + 1 < phases.size()) {
        t_next = std::min(duration, phases[phase + 1].start_time);
      }
    }
    simulate_interval(network, values, t, t_next, rng, sampler, memo);
    memo.publish_counters();
    t = t_next;
    ++phase;
  }
  sampler.finish(duration, values);
}

std::unique_ptr<StochasticSimulator> make_simulator(SsaMethod method) {
  switch (method) {
    case SsaMethod::kDirect:
      return std::make_unique<DirectMethod>();
    case SsaMethod::kNextReaction:
      return std::make_unique<NextReactionMethod>();
    case SsaMethod::kTauLeap:
      return std::make_unique<TauLeaping>();
  }
  throw InvalidArgument("unknown SSA method");
}

SsaMethod parse_ssa_method(const std::string& name) {
  if (name == "direct") return SsaMethod::kDirect;
  if (name == "next-reaction" || name == "nrm") return SsaMethod::kNextReaction;
  if (name == "tau-leap" || name == "tau") return SsaMethod::kTauLeap;
  throw InvalidArgument("unknown SSA method '" + name +
                        "' (expected direct | next-reaction | tau-leap)");
}

}  // namespace glva::sim
