#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crn/network.h"
#include "sim/input_schedule.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace glva::store {
class TraceSink;
}  // namespace glva::store

namespace glva::sim {

class PropensityMemo;

/// Knobs shared by every simulation algorithm.
struct SimulationOptions {
  /// Trace sampling period (time units per recorded row). The paper samples
  /// once per time unit over 10,000-unit runs.
  double sampling_period = 1.0;
  /// RNG seed; equal seeds give bit-identical traces for a given algorithm.
  std::uint64_t seed = 1;
};

/// Records zero-order-hold samples of the state on a uniform time grid.
/// Kernels call advance_before(t, values) immediately *before* applying an
/// event at time t, so every grid point in [previous event, t) carries the
/// state that was live across it.
///
/// Samples stream into a `store::TraceSink` (begin() is called here with
/// the network's species names; finish(t_end, ...) seals the sink) — where
/// rows accumulate is the sink's policy, not the sampler's. The state is
/// constant between two events, so the sampler hands each such run of grid
/// points to the sink as `TraceSink::append_hold` calls of at most
/// `kHoldSamples` samples and copies no species value: a digitizing sink
/// compares each tracked value once per hold, whatever the run's length.
/// By the hold contract the delivered samples are bit-identical to the
/// historical row-at-a-time stream. The historical "materialize a Trace"
/// behaviour is a `store::MemorySink` behind `StochasticSimulator::run`.
///
/// Grid contract: row k's time is computed as exactly
/// `static_cast<double>(k) * sampling_period` (one multiply from the
/// integer index — never an accumulated sum). A run ends at the first k
/// whose time reaches the event (`>= t`; in finish(), `> t_end + 1e-9 ·
/// sampling_period`). That test is monotone in k, so the end is estimated
/// as ceil(t / sampling_period) and corrected in both directions with the
/// exact test: the emitted indices and times are exactly those of a
/// per-point loop. A one-sample run, the common case at paper scale, skips
/// the division. The `.glvt` v2 writer relies on the multiply to detect
/// uniform time columns bit-for-bit and collapse them to an implicit-grid
/// section (`glvt::SectionEncoding::kGrid`); change the arithmetic here
/// and spills silently lose that compression (correctness is unaffected —
/// the writer verifies before collapsing).
class TraceSampler {
public:
  /// Samples per `append_hold` call at most: one default `.glvt` chunk.
  /// Longer runs go out as several holds.
  static constexpr std::size_t kHoldSamples = 4096;

  /// `sink` must outlive the sampler. Throws glva::InvalidArgument for a
  /// sampling period that is not finite and > 0.
  TraceSampler(const crn::ReactionNetwork& network, double sampling_period,
               store::TraceSink& sink);

  /// Emit all unrecorded grid points strictly before `t` with `values`.
  void advance_before(double t, const std::vector<double>& values);

  /// Emit all remaining grid points up to and including `t_end`, finish()
  /// the sink, and publish the run's `sim.sampler.samples` and
  /// `sim.sampler.holds` counters.
  void finish(double t_end, const std::vector<double>& values);

private:
  [[nodiscard]] double grid_time(std::size_t k) const noexcept {
    return static_cast<double>(k) * sampling_period_;
  }
  /// The first grid index at or after next_index_ whose time passes
  /// `bound`: reaches it (`>=`), or exceeds it (`>`) when `strict`.
  [[nodiscard]] std::size_t end_index(double bound, bool strict) const;
  /// Deliver grid points [next_index_, end) to the sink as holds of
  /// `values`.
  void hold(std::size_t end, const std::vector<double>& values);

  double sampling_period_;
  std::size_t next_index_ = 0;  // next grid point to record
  std::uint64_t holds_ = 0;     // append_hold calls so far
  store::TraceSink* sink_;
  std::vector<double> hold_times_;  // the current hold's grid times
};

/// Interface of the exact/approximate stochastic simulation algorithms.
/// A simulator is stateless between runs; all mutable state lives on the
/// stack of run(), so one instance can serve many (sequential) runs.
class StochasticSimulator {
public:
  virtual ~StochasticSimulator() = default;

  /// Human-readable algorithm name ("direct", "next-reaction", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Simulate `network` over [0, duration]: start from the network's
  /// initial values, clamp the schedule's input species at each phase
  /// boundary, and record every species at the sampling grid.
  ///
  /// Throws glva::SimulationError on invalid propensities and
  /// glva::InvalidArgument for schedules referencing unknown species and
  /// for a duration or sampling period that is not finite and > 0.
  [[nodiscard]] Trace run(const crn::ReactionNetwork& network,
                          const InputSchedule& schedule, double duration,
                          const SimulationOptions& options) const;

  /// Streaming twin of `run`: identical simulation (same RNG draws, same
  /// grid rows in the same order), but every sample goes to `sink` instead
  /// of a materialized Trace — `run` itself is this with a
  /// store::MemorySink. Same error contract, plus whatever the sink
  /// throws (e.g. glva::StorageError from a spill sink).
  void run_into(const crn::ReactionNetwork& network,
                const InputSchedule& schedule, double duration,
                const SimulationOptions& options,
                store::TraceSink& sink) const;

protected:
  /// Advance `values` from `t_begin` to `t_end` with no clamp changes,
  /// reporting state to `sampler` before each event. Implemented by each
  /// algorithm; every propensity goes through `memo`, which run_into
  /// resets whenever it writes the clamps.
  virtual void simulate_interval(const crn::ReactionNetwork& network,
                                 std::vector<double>& values, double t_begin,
                                 double t_end, Rng& rng, TraceSampler& sampler,
                                 PropensityMemo& memo) const = 0;
};

/// Algorithm registry (for CLI/bench selection by name).
enum class SsaMethod { kDirect, kNextReaction, kTauLeap };

/// Construct a simulator by method.
[[nodiscard]] std::unique_ptr<StochasticSimulator> make_simulator(SsaMethod method);

/// Parse "direct" / "next-reaction" / "tau-leap"; throws
/// glva::InvalidArgument otherwise.
[[nodiscard]] SsaMethod parse_ssa_method(const std::string& name);

}  // namespace glva::sim
