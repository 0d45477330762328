#include "sim/simulator.h"

#include <cmath>

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
    : sampling_period_(sampling_period), sink_(&sink) {
  if (sampling_period <= 0.0) {
    throw InvalidArgument("sampling_period must be positive");
  }
  const std::size_t species = network.species_names().size();
  block_times_.reserve(kBlockSamples);
  block_series_.resize(species);
  for (auto& column : block_series_) column.reserve(kBlockSamples);
  block_view_.resize(species);
  sink_->begin(network.species_names());
}

void TraceSampler::buffer(double grid_time, const std::vector<double>& values) {
  block_times_.push_back(grid_time);
  for (std::size_t s = 0; s < block_series_.size(); ++s) {
    block_series_[s].push_back(values[s]);
  }
  if (block_times_.size() == kBlockSamples) flush_block();
}

void TraceSampler::flush_block() {
  if (block_times_.empty()) return;
  for (std::size_t s = 0; s < block_series_.size(); ++s) {
    block_view_[s] = block_series_[s];
  }
  sink_->append_block(block_times_, block_view_);
  block_times_.clear();
  for (auto& column : block_series_) column.clear();
}

void TraceSampler::advance_before(double t, const std::vector<double>& values) {
  for (;;) {
    const double grid_time =
        static_cast<double>(next_index_) * sampling_period_;
    if (grid_time >= t) return;
    buffer(grid_time, values);
    ++next_index_;
  }
}

void TraceSampler::finish(double t_end, const std::vector<double>& values) {
  for (;;) {
    const double grid_time =
        static_cast<double>(next_index_) * sampling_period_;
    // Tolerate rounding when t_end is an exact multiple of the period.
    if (grid_time > t_end + sampling_period_ * 1e-9) break;
    buffer(grid_time, values);
    ++next_index_;
  }
  flush_block();
  sink_->finish();
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
  if (duration <= 0.0) {
    throw InvalidArgument("simulation duration must be positive");
  }

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
