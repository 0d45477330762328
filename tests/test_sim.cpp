// Unit tests for glva_sim: RNG, traces, schedules, the indexed priority
// queue, the three SSA kernels (statistical correctness against analytic
// results, exact trajectories of the catalog), the propensity memo, the
// ODE reference, and the virtual lab.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>
#include <utility>

#include "circuits/circuit_repository.h"
#include "crn/network.h"
#include "obs/metrics.h"
#include "sbml/model.h"
#include "sim/indexed_priority_queue.h"
#include "sim/input_schedule.h"
#include "sim/ode.h"
#include "sim/propensity_memo.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/ssa_direct.h"
#include "sim/trace.h"
#include "sim/virtual_lab.h"
#include "store/trace_sink.h"
#include "util/errors.h"
#include "util/stats.h"

namespace {

using namespace glva;
using namespace glva::sim;

// -------------------------------------------------------------------- RNG

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, ExponentialHasCorrectMoments) {
  Rng rng(11);
  util::RunningStats stats;
  const double rate = 4.0;
  for (int i = 0; i < 40000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.01);
}

TEST(Rng, NormalHasCorrectMoments) {
  Rng rng(13);
  util::RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng rng(17);
  for (const double mean : {0.5, 5.0, 80.0}) {
    util::RunningStats stats;
    for (int i = 0; i < 30000; ++i) {
      stats.add(static_cast<double>(rng.poisson(mean)));
    }
    EXPECT_NEAR(stats.mean(), mean, mean * 0.05 + 0.02) << mean;
    EXPECT_NEAR(stats.variance(), mean, mean * 0.12 + 0.05) << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, BelowIsBoundedAndRoughlyUniform) {
  Rng rng(19);
  std::vector<std::size_t> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (const auto count : counts) {
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 450.0);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, SplitGivesIndependentStreams) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------------------ trace

TEST(Trace, AppendsAndLooksUpSeries) {
  Trace trace({"A", "B"});
  trace.append(0.0, {1.0, 2.0});
  trace.append(1.0, {3.0, 4.0});
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_EQ(trace.series("B")[1], 4.0);
  EXPECT_EQ(trace.species_index("A"), 0u);
  EXPECT_THROW((void)trace.series("C"), InvalidArgument);
  EXPECT_THROW((void)trace.series(5), InvalidArgument);
}

TEST(Trace, AppendRejectsNarrowRows) {
  Trace trace({"A", "B"});
  EXPECT_THROW(trace.append(0.0, {1.0}), InvalidArgument);
}

TEST(Trace, ExtendRequiresMatchingSpeciesAndOrderedTime) {
  Trace head({"A"});
  head.append(0.0, {1.0});
  Trace tail({"A"});
  tail.append(1.0, {2.0});
  head.extend(tail);
  EXPECT_EQ(head.sample_count(), 2u);

  Trace wrong({"B"});
  EXPECT_THROW(head.extend(wrong), InvalidArgument);
  Trace backwards({"A"});
  backwards.append(0.5, {0.0});
  EXPECT_THROW(head.extend(backwards), InvalidArgument);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace trace({"X"});
  trace.append(0.0, {7.0});
  EXPECT_EQ(trace.to_csv(), "time,X\n0,7\n");
}

// --------------------------------------------------------------- schedule

TEST(InputSchedule, CombinationSweepCoversAllCombosMsbFirst) {
  const auto schedule =
      InputSchedule::combination_sweep({"A", "B"}, 1000.0, 15.0);
  ASSERT_EQ(schedule.phases().size(), 4u);
  EXPECT_EQ(schedule.phases()[0].levels, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(schedule.phases()[1].levels, (std::vector<double>{0.0, 15.0}));
  EXPECT_EQ(schedule.phases()[2].levels, (std::vector<double>{15.0, 0.0}));
  EXPECT_EQ(schedule.phases()[3].levels, (std::vector<double>{15.0, 15.0}));
  EXPECT_DOUBLE_EQ(schedule.phases()[2].start_time, 500.0);
}

TEST(InputSchedule, PhaseLookupPicksLatestStarted) {
  const auto schedule =
      InputSchedule::combination_sweep({"A"}, 100.0, 1.0);
  EXPECT_EQ(schedule.phase_index_at(0.0), 0u);
  EXPECT_EQ(schedule.phase_index_at(49.9), 0u);
  EXPECT_EQ(schedule.phase_index_at(50.0), 1u);
  EXPECT_EQ(schedule.phase_index_at(1e9), 1u);
  EXPECT_THROW((void)schedule.phase_index_at(-1.0), InvalidArgument);
}

TEST(InputSchedule, ValidatesPhases) {
  InputSchedule schedule(std::vector<std::string>{"A"});
  schedule.add_phase(0.0, {1.0});
  EXPECT_THROW(schedule.add_phase(0.0, {2.0}), InvalidArgument);  // not increasing
  EXPECT_THROW(schedule.add_phase(5.0, {1.0, 2.0}), InvalidArgument);  // arity
  EXPECT_THROW((void)InputSchedule::combination_sweep({}, 10.0, 1.0),
               InvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, 0.0, nan, inf}) {
    EXPECT_THROW((void)InputSchedule::combination_sweep({"A"}, bad, 1.0),
                 InvalidArgument)
        << "total_time " << bad;
    EXPECT_THROW((void)InputSchedule::combination_sweep({"A"}, 10.0, bad),
                 InvalidArgument)
        << "high_level " << bad;
  }
}

// --------------------------------------------------- indexed priority queue

TEST(IndexedPriorityQueue, TracksMinimumUnderUpdates) {
  IndexedPriorityQueue queue(4);
  queue.update(0, 5.0);
  queue.update(1, 3.0);
  queue.update(2, 8.0);
  EXPECT_EQ(queue.top_key(), 1u);
  queue.update(1, 9.0);
  EXPECT_EQ(queue.top_key(), 0u);
  queue.update(3, 0.5);
  EXPECT_EQ(queue.top_key(), 3u);
  EXPECT_TRUE(queue.check_invariants());
  EXPECT_THROW(queue.update(4, 1.0), InvalidArgument);
}

TEST(IndexedPriorityQueue, RandomizedOperationsKeepInvariants) {
  Rng rng(31);
  IndexedPriorityQueue queue(64);
  for (int step = 0; step < 5000; ++step) {
    const auto key = static_cast<std::size_t>(rng.below(64));
    queue.update(key, rng.uniform() * 100.0);
    if (step % 256 == 0) {
      ASSERT_TRUE(queue.check_invariants());
    }
    // top must be <= a random other key's value
    const auto probe = static_cast<std::size_t>(rng.below(64));
    ASSERT_LE(queue.top_value(), queue.value(probe));
  }
  EXPECT_TRUE(queue.check_invariants());
}

// ------------------------------------------------------------- simulators

sbml::Model birth_death(double kb, double kd) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 0.0);
  m.add_parameter("kb", kb);
  m.add_parameter("kd", kd);
  m.add_reaction("birth", {}, {{"X", 1.0}}, "kb");
  m.add_reaction("death", {{"X", 1.0}}, {}, "kd * X");
  return m;
}

/// The birth–death process has a Poisson(kb/kd) stationary distribution:
/// mean = variance = kb/kd. Every exact kernel must reproduce it.
void check_birth_death_stationary(SsaMethod method, double tolerance) {
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const auto simulator = make_simulator(method);
  const InputSchedule schedule;  // no inputs

  util::RunningStats stats;
  SimulationOptions options;
  options.sampling_period = 1.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    const Trace trace = simulator->run(net, schedule, 2000.0, options);
    const auto& xs = trace.series("X");
    // Discard the burn-in (mean reached by ~5 time constants = 50 tu).
    for (std::size_t k = 200; k < xs.size(); ++k) stats.add(xs[k]);
  }
  EXPECT_NEAR(stats.mean(), 20.0, tolerance) << "method mean";
  EXPECT_NEAR(stats.variance(), 20.0, 8.0 * tolerance) << "method variance";
}

TEST(SsaDirect, BirthDeathStationaryMoments) {
  check_birth_death_stationary(SsaMethod::kDirect, 0.8);
}

TEST(SsaNextReaction, BirthDeathStationaryMoments) {
  check_birth_death_stationary(SsaMethod::kNextReaction, 0.8);
}

/// Pearson's statistic of X against Poisson(kb/kd) — the birth–death
/// stationary law — over 8 fixed seeds of the birth–death model, X sampled
/// every 50 time units (5 relaxation times, so about independent) after a
/// 200-unit burn-in: 4000 samples. Bins are merged from the left until each
/// expects at least 5; the last absorbs the upper tail. Returns the
/// statistic and its degrees of freedom (bins − 1).
std::pair<double, std::size_t> birth_death_chi_square(SsaMethod method,
                                                      double kb) {
  constexpr double kPoissonMean = 20.0;  // kb / kd of the unmutated model
  constexpr double kPeriod = 50.0;
  constexpr std::size_t kSamplesPerSeed = 500;
  const auto net = crn::ReactionNetwork::compile(birth_death(kb, 0.1));
  const auto simulator = make_simulator(method);
  SimulationOptions options;
  options.sampling_period = kPeriod;
  std::vector<double> xs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    const Trace trace = simulator->run(
        net, {}, 200.0 + kPeriod * kSamplesPerSeed, options);
    const auto& series = trace.series("X");
    xs.insert(xs.end(), series.end() - kSamplesPerSeed, series.end());
  }
  const double n = static_cast<double>(xs.size());
  // Upper bin edges: bin b holds lo[b] <= X < lo[b + 1].
  std::vector<std::size_t> lo = {0};
  std::vector<double> expected = {0.0};
  for (std::size_t k = 0; k < 200; ++k) {
    if (expected.back() >= 5.0) {
      lo.push_back(k);
      expected.push_back(0.0);
    }
    const double kd = static_cast<double>(k);
    expected.back() += n * std::exp(kd * std::log(kPoissonMean) -
                                    kPoissonMean - std::lgamma(kd + 1.0));
  }
  if (expected.back() < 5.0) {  // a thin upper tail joins its neighbour
    expected[expected.size() - 2] += expected.back();
    expected.pop_back();
    lo.pop_back();
  }
  std::vector<double> observed(expected.size(), 0.0);
  for (const double x : xs) {
    const auto upper = std::upper_bound(lo.begin(), lo.end(),
                                        static_cast<std::size_t>(x));
    observed[static_cast<std::size_t>(upper - lo.begin()) - 1] += 1.0;
  }
  double statistic = 0.0;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    statistic += (observed[b] - expected[b]) * (observed[b] - expected[b]) /
                 expected[b];
  }
  return {statistic, expected.size() - 1};
}

/// The 0.999 quantile of χ²(df), by the Wilson–Hilferty cube-root
/// approximation (within 1% for df ≥ 10).
double chi_square_quantile_999(std::size_t df) {
  constexpr double kZ999 = 3.090232306167813;  // standard normal 0.999
  const double d = static_cast<double>(df);
  const double c = 1.0 - 2.0 / (9.0 * d) + kZ999 * std::sqrt(2.0 / (9.0 * d));
  return d * c * c * c;
}

TEST(SsaExact, BirthDeathStationaryDistributionIsPoisson) {
  for (const auto method : {SsaMethod::kDirect, SsaMethod::kNextReaction}) {
    const auto [statistic, df] = birth_death_chi_square(method, 2.0);
    EXPECT_GE(df, 20u);
    EXPECT_LT(statistic, chi_square_quantile_999(df))
        << "method " << static_cast<int>(method) << ", df " << df;
    // Power: a birth rate 5% high, on the same seeds, must fail.
    const auto [mutated, mutated_df] = birth_death_chi_square(method, 2.1);
    EXPECT_GT(mutated, chi_square_quantile_999(mutated_df))
        << "method " << static_cast<int>(method);
  }
}

TEST(SsaTauLeap, BirthDeathStationaryMean) {
  // Approximate method: allow a looser tolerance.
  check_birth_death_stationary(SsaMethod::kTauLeap, 1.5);
}

TEST(Simulator, SeedsAreReproducibleAndDistinct) {
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const DirectMethod simulator;
  SimulationOptions options;
  options.seed = 9;
  const Trace a = simulator.run(net, {}, 100.0, options);
  const Trace b = simulator.run(net, {}, 100.0, options);
  options.seed = 10;
  const Trace c = simulator.run(net, {}, 100.0, options);
  EXPECT_EQ(a.series("X"), b.series("X"));
  EXPECT_NE(a.series("X"), c.series("X"));
}

TEST(Simulator, SamplingGridIsComplete) {
  const auto net = crn::ReactionNetwork::compile(birth_death(2.0, 0.1));
  const DirectMethod simulator;
  SimulationOptions options;
  options.sampling_period = 0.5;
  const Trace trace = simulator.run(net, {}, 100.0, options);
  EXPECT_EQ(trace.sample_count(), 201u);  // 0, 0.5, ..., 100
  for (std::size_t k = 1; k < trace.times().size(); ++k) {
    ASSERT_DOUBLE_EQ(trace.times()[k] - trace.times()[k - 1], 0.5);
  }
}

TEST(Simulator, CountsStayNonNegative) {
  const auto net = crn::ReactionNetwork::compile(birth_death(0.5, 2.0));
  for (const auto method :
       {SsaMethod::kDirect, SsaMethod::kNextReaction, SsaMethod::kTauLeap}) {
    const auto simulator = make_simulator(method);
    const Trace trace = simulator->run(net, {}, 500.0, {});
    for (const double x : trace.series("X")) ASSERT_GE(x, 0.0);
  }
}

TEST(Simulator, DirectAndNextReactionAgreeStatistically) {
  // Two exact kernels must give statistically indistinguishable means on a
  // regulated two-species cascade.
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("b", 1.0);
  m.add_reaction("makeR", {}, {{"R", 1.0}}, "b");
  m.add_reaction("degR", {{"R", 1.0}}, {}, "0.05 * R");
  m.add_reaction("makeP", {}, {{"P", 1.0}}, "1.2 * (1 - hill(R, 10, 2))",
                 {sbml::ModifierReference{"R"}});
  m.add_reaction("degP", {{"P", 1.0}}, {}, "0.02 * P");
  const auto net = crn::ReactionNetwork::compile(m);

  const auto run_mean = [&](SsaMethod method) {
    const auto simulator = make_simulator(method);
    util::RunningStats stats;
    SimulationOptions options;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      options.seed = seed;
      const Trace trace = simulator->run(net, {}, 1500.0, options);
      const auto& ps = trace.series("P");
      for (std::size_t k = 500; k < ps.size(); ++k) stats.add(ps[k]);
    }
    return stats.mean();
  };
  const double direct = run_mean(SsaMethod::kDirect);
  const double nrm = run_mean(SsaMethod::kNextReaction);
  EXPECT_NEAR(direct, nrm, std::max(1.0, 0.08 * direct));
}

TEST(Simulator, RejectsBadArguments) {
  const auto net = crn::ReactionNetwork::compile(birth_death(1.0, 0.1));
  const DirectMethod simulator;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW((void)simulator.run(net, {}, bad, {}), InvalidArgument)
        << "duration " << bad;
    SimulationOptions options;
    options.sampling_period = bad;
    EXPECT_THROW((void)simulator.run(net, {}, 10.0, options), InvalidArgument)
        << "sampling_period " << bad;
  }
  // Clamping a non-boundary species is an error.
  const auto schedule = InputSchedule::constant({"X"}, {5.0});
  EXPECT_THROW((void)simulator.run(net, schedule, 10.0, {}), InvalidArgument);
}

// ------------------------------------------------ trajectory fingerprints

/// FNV-1a 64 over the IEEE-754 bit pattern of every species at every
/// sample, row by row (bytes little-endian): one propensity that differs
/// in one bit and moves one event changes it.
std::uint64_t trace_fingerprint(const Trace& trace) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t k = 0; k < trace.sample_count(); ++k) {
    for (std::size_t s = 0; s < trace.species_count(); ++s) {
      const auto bits = std::bit_cast<std::uint64_t>(trace.series(s)[k]);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xFFu;
        hash *= 1099511628211ULL;
      }
    }
  }
  return hash;
}

/// Exact trajectories of the whole catalog under every kernel, at the
/// paper's sweep (10^4 time units, inputs at 15 molecules, 1-unit
/// sampling) and seed 7. Any change to the SSA kernels, the propensity
/// path or the expression interpreter must keep every one of these; the
/// statistical tests above cannot see a changed sample path.
struct TrajectoryPin {
  const char* circuit;
  std::uint64_t direct;
  std::uint64_t next_reaction;
  std::uint64_t tau_leap;
};

constexpr TrajectoryPin kTrajectoryPins[] = {
    {"myers_not", 0xba933d98212f50d3ULL, 0x34ac24c9e3bc0e25ULL,
     0xba933d98212f50d3ULL},
    {"myers_and", 0x601605fbcc3ff6b6ULL, 0xd7e0c627a9f4c549ULL,
     0x3145bc10d0532ed5ULL},
    {"myers_nand", 0x8b6ceb4c38e4f7f7ULL, 0x8898e8161108da71ULL,
     0xaa7d8fc2e7e30185ULL},
    {"myers_or", 0x8d28d157136c7ea3ULL, 0x1ed07aaec3bd6925ULL,
     0x8d28d157136c7ea3ULL},
    {"myers_nor", 0xe70aa7cb4e25b972ULL, 0x870c77ab494f07b1ULL,
     0xe70aa7cb4e25b972ULL},
    {"0x1", 0x6eeab046877ee425ULL, 0x3b70abf717b7b02eULL,
     0x6eeab046877ee425ULL},
    {"0x6", 0xcb0244dc60aecf31ULL, 0xeb181251c5d82507ULL,
     0x3ba7d0e88a04891dULL},
    {"0x8", 0xdee301535cb753e7ULL, 0x4704fee469f34803ULL,
     0xdee301535cb753e7ULL},
    {"0xE", 0x74a1d28cc7b210b5ULL, 0x1db057b07dacc4a5ULL,
     0x74a1d28cc7b210b5ULL},
    {"0x04", 0xaebf272fcb5777d1ULL, 0xc8c2eadfff66aec7ULL,
     0xcd40f599160a07bcULL},
    {"0x0B", 0x2890ca1d7bdc070eULL, 0x5b2c5af58085b525ULL,
     0x2890ca1d7bdc070eULL},
    {"0x14", 0xfcefa787bc46fdf4ULL, 0x6a44a45e16829a3dULL,
     0xc24c8da478d70b49ULL},
    {"0x17", 0x7b7d9b451d0f74c6ULL, 0xe07541be7897731dULL,
     0xd5457349f8b5762fULL},
    {"0x1C", 0x0cd61bbb3b982236ULL, 0x6c01de39e66a6c9fULL,
     0x0cd61bbb3b982236ULL},
    {"0x80", 0x8152c8666d5c9017ULL, 0xa6062c4547efc8b4ULL,
     0x81975a04d5b9b6c5ULL},
};

TEST(Simulator, CatalogTrajectoriesAreBitIdentical) {
  const auto names = circuits::CircuitRepository::names();
  ASSERT_EQ(names.size(), std::size(kTrajectoryPins));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const TrajectoryPin& pin = kTrajectoryPins[i];
    ASSERT_EQ(names[i], pin.circuit) << "table out of catalog order";
    const auto spec = circuits::CircuitRepository::build(pin.circuit);
    const std::pair<SsaMethod, std::uint64_t> expected[] = {
        {SsaMethod::kDirect, pin.direct},
        {SsaMethod::kNextReaction, pin.next_reaction},
        {SsaMethod::kTauLeap, pin.tau_leap},
    };
    for (const auto& [method, fingerprint] : expected) {
      LabOptions options;
      options.seed = 7;
      options.method = method;
      VirtualLab lab(spec.model, options);
      lab.declare_inputs(spec.input_ids);
      const auto sweep = lab.run_combination_sweep(10000.0, 15.0);
      EXPECT_EQ(trace_fingerprint(sweep.trace), fingerprint)
          << pin.circuit << " under " << make_simulator(method)->name()
          << ": got 0x" << std::hex << trace_fingerprint(sweep.trace);
    }
  }
}

// -------------------------------------------------------- propensity memo

/// Laws that each produce Y and read their species as modifiers, so no
/// reactant requirement gates them.
sbml::Model memo_model() {
  sbml::Model m;
  m.add_compartment("cell");
  for (const char* id : {"X", "Z", "W", "V", "Y"}) m.add_species(id, 0.0);
  m.add_parameter("k", 0.5);
  const auto reads = [](std::vector<const char*> ids) {
    std::vector<sbml::ModifierReference> modifiers;
    for (const char* id : ids) modifiers.push_back({id});
    return modifiers;
  };
  m.add_reaction("shifted", {}, {{"Y", 1.0}}, "X + 10", reads({"X"}));
  m.add_reaction("scaled", {}, {{"Y", 1.0}}, "k * X", reads({"X"}));
  m.add_reaction("saturating", {}, {{"Y", 1.0}}, "1 + hill(X, 5, 2)",
                 reads({"X"}));
  m.add_reaction("four_species", {}, {{"Y", 1.0}}, "X + Z + W + V + 1",
                 reads({"X", "Z", "W", "V"}));
  m.add_reaction("constant", {}, {{"Y", 1.0}}, "k");
  m.add_reaction("gated", {}, {{"Y", 1.0}}, "k * (X - 5)", reads({"X"}));
  return m;
}

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

TEST(PropensityMemo, RepeatedCountsAreServedFromTheMemo) {
  const auto net = crn::ReactionNetwork::compile(memo_model());
  PropensityMemo memo(net);
  auto values = net.initial_values();
  const std::size_t x = net.species_index("X");
  const std::size_t r = 0;  // shifted
  for (const double count : {3.0, 4.0, 3.0, 4.0, 3.0}) {
    values[x] = count;
    EXPECT_EQ(bits(memo.propensity(r, values)), bits(count + 10.0));
  }
  EXPECT_EQ(memo.lookups(), 5u);
  EXPECT_EQ(memo.evals(), 2u);  // one miss per distinct count
  memo.publish_counters();
  EXPECT_EQ(memo.lookups(), 0u);
  EXPECT_EQ(memo.evals(), 0u);
}

TEST(PropensityMemo, BypassCasesEvaluateEveryTime) {
  const auto net = crn::ReactionNetwork::compile(memo_model());
  const std::size_t x = net.species_index("X");
  struct Case {
    const char* label;
    std::size_t reaction;
    double primed_x;  // a whole count evaluated first, filling the memo
    double x;
  };
  const double too_large =
      static_cast<double>(PropensityMemo::kMaxCount) + 1.0;
  const Case cases[] = {
      {"fractional", 0, 2.0, 2.5},
      {"negative", 0, 2.0, -2.0},
      {"negative zero", 1, 0.0, -0.0},
      {"NaN", 2, 0.0, std::nan("")},
      {"beyond the key range", 0, 2.0, too_large},
      {"more species than the key holds", 3, 2.0, 2.0},
      {"no mutable dependency", 4, 2.0, 2.0},
  };
  for (const Case& c : cases) {
    PropensityMemo memo(net);
    auto values = net.initial_values();
    values[x] = c.primed_x;
    (void)memo.propensity(c.reaction, values);
    values[x] = c.x;
    const std::uint64_t before = memo.evals();
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_EQ(bits(memo.propensity(c.reaction, values)),
                bits(net.propensity(c.reaction, values)))
          << c.label;
    }
    EXPECT_EQ(memo.evals() - before, 2u) << c.label;
  }
}

TEST(PropensityMemo, CollidingKeysStayExact) {
  const auto net = crn::ReactionNetwork::compile(memo_model());
  PropensityMemo memo(net);
  auto values = net.initial_values();
  const std::size_t x = net.species_index("X");
  // More distinct counts than a law has slots, so keys must collide.
  constexpr int kCounts = 600;
  static_assert(kCounts > static_cast<int>(PropensityMemo::kSlotsPerLaw));
  static_assert(kCounts <= static_cast<int>(PropensityMemo::kMaxCount));
  for (int pass = 0; pass < 3; ++pass) {
    for (int count = 0; count < kCounts; ++count) {
      const int key = pass == 1 ? kCounts - 1 - count : count;
      values[x] = static_cast<double>(key);
      for (const std::size_t r : {0u, 2u}) {  // shifted, saturating
        ASSERT_EQ(bits(memo.propensity(r, values)),
                  bits(net.propensity(r, values)));
      }
    }
  }
  // kSlotsPerLaw slots cannot hold kCounts keys: later passes must have
  // missed again.
  EXPECT_GT(memo.evals(), 2u * kCounts);
}

TEST(PropensityMemo, InvalidLawThrowsOnTheSameEvaluation) {
  const auto net = crn::ReactionNetwork::compile(memo_model());
  PropensityMemo memo(net);
  auto values = net.initial_values();
  const std::size_t x = net.species_index("X");
  const std::size_t gated = 5;  // k * (X - 5): negative below 5
  for (const double count : {9.0, 7.0, 5.0, 4.0, 7.0, 4.0, 6.0, 2.0}) {
    values[x] = count;
    bool direct_threw = false;
    double direct = 0.0;
    try {
      direct = net.propensity(gated, values);
    } catch (const SimulationError&) {
      direct_threw = true;
    }
    if (direct_threw) {
      EXPECT_THROW((void)memo.propensity(gated, values), SimulationError)
          << count;
    } else {
      EXPECT_EQ(bits(memo.propensity(gated, values)), bits(direct)) << count;
    }
  }
}

TEST(PropensityMemo, InfinitePropensityStopsEveryKernel) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("S", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("k", 1.0);
  m.add_reaction("inverse", {}, {{"P", 1.0}}, "k / S",
                 {sbml::ModifierReference{"S"}});
  const auto net = crn::ReactionNetwork::compile(m);
  for (const auto method :
       {SsaMethod::kDirect, SsaMethod::kNextReaction, SsaMethod::kTauLeap}) {
    EXPECT_THROW((void)make_simulator(method)->run(net, {}, 100.0, {}),
                 SimulationError);
  }
}

TEST(PropensityMemo, ClampChangeRefreshesLawsReadingAnInput) {
  // 0x0B's BM3R1 NOR gate reads the input B and the internal SrpR.
  const auto spec = circuits::CircuitRepository::build("0x0B");
  VirtualLab lab(spec.model);
  lab.declare_inputs(spec.input_ids);
  const crn::ReactionNetwork& net = lab.network();
  std::size_t prod = net.reaction_count();
  for (std::size_t r = 0; r < net.reaction_count(); ++r) {
    if (net.reaction(r).id == "BM3R1_prod") prod = r;
  }
  ASSERT_LT(prod, net.reaction_count());
  const std::size_t b = net.species_index("B");
  const std::size_t srpr = net.species_index("SrpR");
  const auto& reads = net.reaction(prod).depends_on;
  ASSERT_TRUE(std::find(reads.begin(), reads.end(), b) != reads.end());
  ASSERT_TRUE(std::find(reads.begin(), reads.end(), srpr) != reads.end());

  PropensityMemo memo(net);
  auto values = net.initial_values();
  values[b] = 0.0;
  values[srpr] = 3.0;
  const double before = memo.propensity(prod, values);

  values[b] = 15.0;  // the clamp write of the next phase
  memo.reset();
  const double after = memo.propensity(prod, values);
  EXPECT_EQ(bits(after), bits(net.propensity(prod, values)));
  EXPECT_NE(after, before);
  EXPECT_EQ(memo.evals(), 2u);  // the same counts, evaluated again
}

TEST(PropensityMemo, RunsPublishLookupsAndEvaluations) {
  const auto spec = circuits::CircuitRepository::build("0x0B");
  const auto counter = [](const char* name) -> std::uint64_t {
    for (const auto& sample : obs::snapshot().counters) {
      if (sample.name == name) return sample.value;
    }
    return 0;
  };
  const std::uint64_t steps = counter("sim.ssa.steps");
  const std::uint64_t lookups = counter("sim.ssa.propensity_lookups");
  const std::uint64_t evals = counter("sim.ssa.propensity_evals");
  VirtualLab lab(spec.model);
  lab.declare_inputs(spec.input_ids);
  (void)lab.run_combination_sweep(2000.0, 15.0);
  if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics compiled out";
  const std::uint64_t step_delta = counter("sim.ssa.steps") - steps;
  const std::uint64_t lookup_delta =
      counter("sim.ssa.propensity_lookups") - lookups;
  const std::uint64_t eval_delta =
      counter("sim.ssa.propensity_evals") - evals;
  EXPECT_GT(step_delta, 0u);
  EXPECT_GE(lookup_delta, step_delta);  // every step updates >= 1 law
  EXPECT_GT(eval_delta, 0u);
  EXPECT_LT(eval_delta, lookup_delta / 2);  // the memo answers most
}

// ------------------------------------------------------------ the sampler

/// Accepts only holds, and checks that each carries the grid times of the
/// next consecutive indices, `static_cast<double>(k) * period` bit for bit.
class HoldRecorder final : public store::TraceSink {
public:
  explicit HoldRecorder(double period) : period_(period) {}

  void begin(const std::vector<std::string>& /*species_names*/) override {}
  void append(double /*time*/, const std::vector<double>& /*values*/) override {
    ADD_FAILURE() << "the sampler delivered a row, not a hold";
  }
  void append_hold(std::span<const double> times,
                   const std::vector<double>& /*values*/) override {
    EXPECT_GE(times.size(), 1u);
    EXPECT_LE(times.size(), TraceSampler::kHoldSamples);
    for (const double time : times) {
      ASSERT_EQ(bits(time), bits(static_cast<double>(samples_) * period_))
          << "sample " << samples_;
      ++samples_;
    }
  }
  void finish() override { finished_ = true; }

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

private:
  double period_;
  std::size_t samples_ = 0;
  bool finished_ = false;
};

/// The per-point loops the sampler's holds replace: the next grid index
/// after advance_before(t) and after finish(t_end), starting from `next`.
std::size_t per_point_before(std::size_t next, double period, double t) {
  while (static_cast<double>(next) * period < t) ++next;
  return next;
}
std::size_t per_point_finish(std::size_t next, double period, double t_end) {
  while (static_cast<double>(next) * period <= t_end + period * 1e-9) ++next;
  return next;
}

constexpr double kSamplerPeriods[] = {1.0, 0.1, 1.0 / 3.0, 0.001, 1e-7};

TEST(TraceSampler, HoldsEmitExactlyThePerPointGridIndices) {
  const auto net = crn::ReactionNetwork::compile(birth_death(1.0, 0.1));
  const std::vector<double> values(net.species_names().size(), 3.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Events on these grid points, one ulp either side of them, or halfway
  // to the next: one sequence per spelling, so each event lands on its
  // point from the previous one. The jumps span one sample (no division),
  // word (64) and hold (4096) boundaries, and long runs where the ceil
  // estimate needs correcting in either direction.
  constexpr std::size_t kEvents[] = {0,    1,    2,    3,     63,    64,
                                     65,   4095, 4096, 4097,  4098,  12289,
                                     20000, 100000};
  const auto spellings = {
      +[](double on_grid, double) { return std::nextafter(on_grid, -kInf); },
      +[](double on_grid, double) { return on_grid; },
      +[](double on_grid, double) { return std::nextafter(on_grid, kInf); },
      +[](double on_grid, double period) { return on_grid + period / 2; }};
  for (const double period : kSamplerPeriods) {
    std::size_t spelling = 0;
    for (const auto event_time : spellings) {
      HoldRecorder sink(period);
      TraceSampler sampler(net, period, sink);
      std::size_t expected = 0;
      for (const std::size_t k : kEvents) {
        const double t = event_time(static_cast<double>(k) * period, period);
        sampler.advance_before(t, values);
        expected = per_point_before(expected, period, t);
        ASSERT_EQ(sink.samples(), expected)
            << "period " << period << ", spelling " << spelling
            << ", event " << t << " near index " << k;
      }
      sampler.finish(static_cast<double>(100003) * period, values);
      EXPECT_EQ(sink.samples(), 100004u) << "period " << period;
      EXPECT_TRUE(sink.finished());
      ++spelling;
    }
  }
}

TEST(TraceSampler, FinishKeepsThePerPointToleranceAtTheEnd) {
  const auto net = crn::ReactionNetwork::compile(birth_death(1.0, 0.1));
  const std::vector<double> values(net.species_names().size(), 3.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double period : kSamplerPeriods) {
    for (const std::size_t k : {0u, 1u, 63u, 64u, 4096u, 4097u, 20000u}) {
      const double on_grid = static_cast<double>(k) * period;
      // t_end on the grid point, an ulp either side, and on both sides of
      // the 1e-9-period tolerance below it.
      for (const double t_end :
           {on_grid, std::nextafter(on_grid, -kInf),
            std::nextafter(on_grid, kInf), on_grid - period * 0.5e-9,
            on_grid - period * 1e-9, on_grid - period * 2e-9,
            on_grid + period * 0.5}) {
        HoldRecorder sink(period);
        TraceSampler sampler(net, period, sink);
        sampler.advance_before(on_grid / 2, values);
        const std::size_t before = per_point_before(0, period, on_grid / 2);
        ASSERT_EQ(sink.samples(), before);
        sampler.finish(t_end, values);
        EXPECT_EQ(sink.samples(), per_point_finish(before, period, t_end))
            << "period " << period << ", t_end " << t_end << " near index "
            << k;
        EXPECT_TRUE(sink.finished());
      }
    }
  }
}

// -------------------------------------------------------------------- ODE

TEST(Ode, ExponentialDecayMatchesClosedForm) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 100.0);
  m.add_parameter("kd", 0.05);
  m.add_reaction("decay", {{"X", 1.0}}, {}, "kd * X");
  const auto net = crn::ReactionNetwork::compile(m);
  const OdeRk4 integrator(0.01);
  const Trace trace = integrator.run(net, {}, 50.0, 1.0);
  for (std::size_t k = 0; k < trace.sample_count(); ++k) {
    const double expected = 100.0 * std::exp(-0.05 * trace.times()[k]);
    ASSERT_NEAR(trace.series("X")[k], expected, 0.01);
  }
}

TEST(Ode, SsaMeanConvergesToOde) {
  // The paper's premise: ODE = continuum limit; SSA fluctuates around it.
  const auto model = birth_death(2.0, 0.1);
  const auto net = crn::ReactionNetwork::compile(model);
  const OdeRk4 integrator(0.01);
  const Trace ode = integrator.run(net, {}, 100.0, 1.0);

  const DirectMethod ssa;
  util::RunningStats at_end;
  SimulationOptions options;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    options.seed = seed;
    const Trace trace = ssa.run(net, {}, 100.0, options);
    at_end.add(trace.series("X").back());
  }
  EXPECT_NEAR(at_end.mean(), ode.series("X").back(), 2.5);
}

// ------------------------------------------------------------ virtual lab

sbml::Model inverter_model() {
  sbml::Model m;
  m.id = "inv";
  m.add_compartment("cell");
  m.add_species("In", 0.0);
  m.add_species("Out", 0.0);
  m.add_parameter("b", 1.2);
  m.add_reaction("prod", {}, {{"Out", 1.0}}, "b * (1 - hill(In, 5, 3.5))",
                 {sbml::ModifierReference{"In"}});
  m.add_reaction("deg", {{"Out", 1.0}}, {}, "0.02 * Out");
  return m;
}

TEST(VirtualLab, DeclareInputsMarksBoundary) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  EXPECT_TRUE(lab.model().find_species("In")->boundary_condition);
  EXPECT_TRUE(lab.network().is_boundary(lab.network().species_index("In")));
  EXPECT_THROW(lab.declare_inputs({"Ghost"}), InvalidArgument);
}

TEST(VirtualLab, ClampedInputsFollowTheSchedule) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  const auto sweep = lab.run_combination_sweep(2000.0, 15.0);
  const auto& in = sweep.trace.series("In");
  const auto& times = sweep.trace.times();
  for (std::size_t k = 0; k < in.size(); ++k) {
    const double expected = times[k] < 1000.0 ? 0.0 : 15.0;
    ASSERT_DOUBLE_EQ(in[k], expected) << "t=" << times[k];
  }
}

TEST(VirtualLab, InverterRespondsToInput) {
  VirtualLab lab(inverter_model());
  lab.declare_inputs({"In"});
  const auto sweep = lab.run_combination_sweep(4000.0, 15.0);
  const auto& out = sweep.trace.series("Out");
  // Settled OFF phase (input absent): output high near plateau 60.
  util::RunningStats off_phase;
  for (std::size_t k = 1000; k < 2000; ++k) off_phase.add(out[k]);
  EXPECT_GT(off_phase.mean(), 40.0);
  // Settled ON phase: output at the leak floor.
  util::RunningStats on_phase;
  for (std::size_t k = 3000; k < 4000; ++k) on_phase.add(out[k]);
  EXPECT_LT(on_phase.mean(), 5.0);
}

TEST(VirtualLab, SweepRequiresDeclaredInputs) {
  VirtualLab lab(inverter_model());
  EXPECT_THROW((void)lab.run_combination_sweep(100.0, 15.0), InvalidArgument);
}

}  // namespace
