// Tests for the exec/ parallel runtime: ThreadPool exception draining,
// ParallelRunner's ordered-commit determinism contract, SeedSequence
// stream derivation, and the bit-identity of ensemble / threshold-sweep /
// batch results across worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/commands.h"
#include "circuits/circuit_repository.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/threshold_sweep.h"
#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "exec/thread_pool.h"
#include "sim/rng.h"
#include "store/spill_reader.h"
#include "util/errors.h"

namespace {

using namespace glva;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_GE(exec::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, ThrowingTaskSurfacesOriginalException) {
  // Declared before the pool, so the pool joins its workers before this
  // last reference frees the exception. Otherwise a worker may free it
  // after this thread read it, ordered only by libstdc++'s reference
  // count, which ThreadSanitizer cannot see in an uninstrumented libstdc++.
  std::shared_future<void> future;
  exec::ThreadPool pool(2);
  future = pool.submit([] { throw std::runtime_error("boom from job"); })
               .share();
  try {
    future.get();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from job");
  }
  // The pool is still usable after a failed task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, DestructionWithQueuedThrowingTasksDoesNotTerminate) {
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      (void)pool.submit([&ran] {
        ++ran;
        throw std::runtime_error("dropped");
      });
    }
  }  // futures discarded: exceptions must die with the shared state
  EXPECT_EQ(ran.load(), 8);
}

// -------------------------------------------------------- ParallelRunner

TEST(ParallelRunner, ResolvesJobRequests) {
  EXPECT_GE(exec::resolve_jobs(0), 1u);
  EXPECT_EQ(exec::resolve_jobs(5), 5u);
  EXPECT_EQ(exec::ParallelRunner(0).jobs(), exec::resolve_jobs(0));
  EXPECT_EQ(exec::ParallelRunner(3).jobs(), 3u);
}

TEST(ParallelRunner, MapCommitsInIndexOrder) {
  const exec::ParallelRunner runner(8);
  const auto values = runner.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(values.size(), 100u);
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i * i);
}

TEST(ParallelRunner, EmptyAndSingleCounts) {
  const exec::ParallelRunner runner(4);
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
  EXPECT_EQ(runner.map<int>(1, [](std::size_t) { return 7; }).at(0), 7);
}

TEST(ParallelRunner, RethrowsLowestFailedIndex) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const exec::ParallelRunner runner(jobs);
    try {
      runner.for_each_index(8, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("failure at 3");
        if (i == 5) throw std::runtime_error("failure at 5");
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failure at 3") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, DrainsStragglersBeforeThrowing) {
  std::atomic<int> completed{0};
  const exec::ParallelRunner runner(4);
  EXPECT_THROW(runner.for_each_index(16,
                                     [&completed](std::size_t i) {
                                       if (i == 0) {
                                         throw std::runtime_error("early");
                                       }
                                       ++completed;
                                     }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
}

// ------------------------------------------------ ParallelRunner::run_reduce

TEST(RunReduce, CommitsEveryResultInIndexOrderOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const exec::ParallelRunner runner(jobs);
    std::vector<std::size_t> committed;
    runner.run_reduce<std::size_t>(
        100, [](std::size_t i) { return i * i; },
        [&](std::size_t i, std::size_t&& value) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(value, i * i);
          committed.push_back(i);
        });
    ASSERT_EQ(committed.size(), 100u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(committed[i], i) << "jobs=" << jobs;
    }
  }
}

TEST(RunReduce, MatchesMapBitForBitAcrossJobCounts) {
  const exec::ParallelRunner serial(1);
  const exec::ParallelRunner parallel(8);
  const auto reference =
      serial.map<std::size_t>(64, [](std::size_t i) { return i * 31 + 7; });
  std::vector<std::size_t> streamed;
  parallel.run_reduce<std::size_t>(
      64, [](std::size_t i) { return i * 31 + 7; },
      [&](std::size_t, std::size_t&& value) { streamed.push_back(value); });
  EXPECT_EQ(streamed, reference);
}

TEST(RunReduce, FailureCommitsThePrefixAndRethrowsTheLowestFailedIndex) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const exec::ParallelRunner runner(jobs);
    std::vector<std::size_t> committed;
    try {
      runner.run_reduce<int>(
          16,
          [](std::size_t i) {
            if (i == 3) throw std::runtime_error("failure at 3");
            if (i == 5) throw std::runtime_error("failure at 5");
            return static_cast<int>(i);
          },
          [&](std::size_t i, int&&) { committed.push_back(i); });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failure at 3") << "jobs=" << jobs;
    }
    // Commits are exactly the prefix below the lowest failed index.
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2})) << "jobs=" << jobs;
  }
}

TEST(RunReduce, CommitExceptionPropagatesAfterDraining) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const exec::ParallelRunner runner(jobs);
    std::vector<std::size_t> committed;
    try {
      runner.run_reduce<int>(
          12, [](std::size_t i) { return static_cast<int>(i); },
          [&](std::size_t i, int&&) {
            if (i == 2) throw std::runtime_error("commit rejects 2");
            committed.push_back(i);
          });
      FAIL() << "expected the commit's exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "commit rejects 2") << "jobs=" << jobs;
    }
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1})) << "jobs=" << jobs;
  }
}

TEST(RunReduce, EmptyCountIsANoOp) {
  const exec::ParallelRunner runner(4);
  runner.run_reduce<int>(
      0, [](std::size_t) { return 1; },
      [](std::size_t, int&&) { FAIL() << "no commits expected"; });
}

// ---------------------------------------------------------- SeedSequence

TEST(SeedSequence, DerivedSeedsAreStableAndDistinct) {
  const exec::SeedSequence seeds(1);
  EXPECT_EQ(seeds.seed_for(7), exec::derive_seed(1, 7));
  EXPECT_EQ(seeds.seed_for(7), seeds.seed_for(7));  // pure function

  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(seeds.seed_for(i));
  EXPECT_EQ(seen.size(), 4096u);  // injective per base (finalizer bijection)

  EXPECT_NE(exec::derive_seed(1, 0), exec::derive_seed(2, 0));
  EXPECT_NE(exec::derive_seed(1, 0), 1u);  // never the raw base seed

  const auto firsts = seeds.first(16);
  ASSERT_EQ(firsts.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(firsts[i], seeds.seed_for(i));
}

// The seed-derivation contract (satellite): streams for adjacent job
// indices are statistically independent, not shifted copies.
TEST(SeedSequence, AdjacentJobStreamsAreUncorrelated) {
  const exec::SeedSequence seeds(42);
  constexpr std::size_t kSamples = 4096;

  // Overlap check: no raw 64-bit output collides between the two streams
  // (expected collisions ~ kSamples^2 / 2^64 ~ 1e-12).
  sim::Rng raw_a = seeds.rng_for(10);
  sim::Rng raw_b = seeds.rng_for(11);
  std::set<std::uint64_t> outputs_a;
  for (std::size_t i = 0; i < kSamples; ++i) outputs_a.insert(raw_a.next_u64());
  std::size_t overlaps = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    if (outputs_a.count(raw_b.next_u64()) != 0) ++overlaps;
  }
  EXPECT_EQ(overlaps, 0u);

  // Paired uniform samples from fresh copies of both streams.
  sim::Rng uniform_a = seeds.rng_for(10);
  sim::Rng uniform_b = seeds.rng_for(11);
  std::vector<double> ua, ub;
  for (std::size_t i = 0; i < kSamples; ++i) {
    ua.push_back(uniform_a.uniform());
    ub.push_back(uniform_b.uniform());
  }

  // Chi-square uniformity of each stream: 16 bins, df = 15; 99.9th
  // percentile is ~37.7, so 60 is a generous non-flaky bound.
  const auto chi_square = [](const std::vector<double>& xs) {
    constexpr std::size_t kBins = 16;
    std::vector<std::size_t> bins(kBins, 0);
    for (const double x : xs) {
      ++bins[std::min(kBins - 1, static_cast<std::size_t>(x * kBins))];
    }
    const double expected =
        static_cast<double>(xs.size()) / static_cast<double>(kBins);
    double chi = 0.0;
    for (const std::size_t count : bins) {
      const double d = static_cast<double>(count) - expected;
      chi += d * d / expected;
    }
    return chi;
  };
  EXPECT_LT(chi_square(ua), 60.0);
  EXPECT_LT(chi_square(ub), 60.0);

  // Pearson correlation between the paired streams is near zero.
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    mean_a += ua[i];
    mean_b += ub[i];
  }
  mean_a /= kSamples;
  mean_b /= kSamples;
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    cov += (ua[i] - mean_a) * (ub[i] - mean_b);
    var_a += (ua[i] - mean_a) * (ua[i] - mean_a);
    var_b += (ub[i] - mean_b) * (ub[i] - mean_b);
  }
  const double correlation = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(correlation), 0.08);
}

// ------------------------------------------------- cross-jobs bit-identity

/// Bit-exact rendering of a double (text formatting could hide ULP drift).
std::string bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream out;
  out << std::hex << bits;
  return out.str();
}

/// Serialize everything seed-dependent an experiment produced. The run
/// archived its own analog rows (see archiving_config), and the archive's
/// CSV captures every sample of every species the run simulated, so any
/// divergence in the simulation itself shows up, not just in the derived
/// analytics. The archive's directory is left out: runs that archive into
/// different directories fingerprint alike.
std::string fingerprint(const core::ExperimentResult& result) {
  const core::ExperimentConfig& config = result.config;
  const std::string stem =
      config.spill_stem.empty()
          ? result.circuit_name + "-s" + std::to_string(config.seed)
          : config.spill_stem;
  store::SpillReader archive(
      (std::filesystem::path(config.spill_dir) / (stem + ".glvt")).string());
  std::ostringstream out;
  out << result.circuit_name << '|' << config.seed << '|'
      << result.extraction.extracted().to_bits() << '|'
      << bits_of(result.extraction.fitness()) << '|'
      << result.verification.matches << '|'
      << result.verification.wrong_state_count() << '|'
      << archive.read_all().to_csv() << '\n';
  return out.str();
}

std::string fingerprint(const core::EnsembleResult& ensemble) {
  std::ostringstream out;
  out << ensemble.circuit_name << '|' << ensemble.replicate_count << '|'
      << ensemble.majority_logic.to_bits() << '|' << ensemble.majority_matches
      << '|' << ensemble.match_count << '\n';
  for (const std::uint64_t seed : ensemble.replicate_seeds) out << seed << ',';
  out << '\n';
  for (const auto& stats : ensemble.combination_stats) {
    out << stats.combination << ':' << stats.high_votes << ':'
        << bits_of(stats.fov_mean) << ':' << bits_of(stats.fov_stddev) << '\n';
  }
  out << bits_of(ensemble.pfobe.mean) << ':' << bits_of(ensemble.pfobe.stddev)
      << ':' << bits_of(ensemble.wrong_states.mean) << '\n';
  return out.str();
}

/// An ensemble run plus the fingerprint of every replicate, captured from
/// the ordered commit stream (run_ensemble no longer materializes the
/// replicates, so the observer is where per-replicate bits are seen).
struct FingerprintedEnsemble {
  core::EnsembleResult ensemble;
  std::vector<std::string> replicates;
};

FingerprintedEnsemble run_fingerprinted_ensemble(
    const circuits::CircuitSpec& spec, const core::ExperimentConfig& config,
    std::size_t replicates, std::size_t jobs) {
  FingerprintedEnsemble run;
  run.replicates.resize(replicates);
  std::size_t commits = 0;
  run.ensemble = core::run_ensemble(
      spec, config, replicates, jobs,
      [&](std::size_t r, const core::ExperimentResult& result) {
        EXPECT_EQ(r, commits) << "observer must see replicates in index order";
        ++commits;
        run.replicates[r] = fingerprint(result);
      });
  EXPECT_EQ(commits, replicates);
  return run;
}

core::ExperimentConfig fast_config() {
  core::ExperimentConfig config;
  config.total_time = 400.0;
  config.seed = 99;
  return config;
}

/// fast_config, archiving the analog rows of every run into a fresh
/// directory named for `run`, where fingerprint() reads them back.
core::ExperimentConfig archiving_config(const std::string& run) {
  core::ExperimentConfig config = fast_config();
  config.sink = store::SinkKind::kSpill;
  config.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / ("exec_" + run))
          .string();
  std::filesystem::remove_all(config.spill_dir);
  return config;
}

TEST(Determinism, EnsembleIsBitIdenticalAcrossJobCounts) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const auto serial =
      run_fingerprinted_ensemble(spec, archiving_config("ensemble_j1"), 5, 1);
  const auto parallel =
      run_fingerprinted_ensemble(spec, archiving_config("ensemble_j8"), 5, 8);
  EXPECT_EQ(fingerprint(serial.ensemble), fingerprint(parallel.ensemble));
  // Every replicate — each sample its run simulated included — is
  // bit-identical whatever the worker count, replicate by replicate.
  EXPECT_EQ(serial.replicates, parallel.replicates);
  // Replicates genuinely differ from one another (derived streams, not a
  // replayed base seed).
  EXPECT_NE(serial.replicates[0], serial.replicates[1]);
}

TEST(Determinism, ThresholdSweepIsBitIdenticalAcrossJobCounts) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const std::vector<double> thresholds{5.0, 15.0, 30.0};
  const auto serial =
      core::threshold_sweep(spec, archiving_config("sweep_j1"), thresholds, 1);
  const auto parallel =
      core::threshold_sweep(spec, archiving_config("sweep_j4"), thresholds, 4);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].threshold, parallel.points[i].threshold);
    EXPECT_EQ(fingerprint(serial.points[i].result),
              fingerprint(parallel.points[i].result))
        << "threshold point " << i;
  }
}

TEST(Determinism, BatchIsBitIdenticalAcrossJobCountsAndKeepsSpecOrder) {
  const std::vector<circuits::CircuitSpec> specs{
      circuits::CircuitRepository::build("0x1"),
      circuits::CircuitRepository::build("0x6"),
      circuits::CircuitRepository::build("0x8"),
  };
  const auto serial = core::run_batch(specs, archiving_config("batch_j1"), 1);
  const auto parallel = core::run_batch(specs, archiving_config("batch_j4"), 4);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].circuit_name, specs[i].name);
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i])) << specs[i].name;
  }
}

TEST(Ensemble, RejectsZeroReplicates) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  EXPECT_THROW((void)core::run_ensemble(spec, fast_config(), 0, 1),
               InvalidArgument);
}

TEST(Ensemble, MajorityVoteRecoversIntendedLogic) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  core::ExperimentConfig config;
  config.total_time = 4000.0;
  const auto ensemble = core::run_ensemble(spec, config, 3, 0);
  EXPECT_TRUE(ensemble.majority_matches);
  EXPECT_EQ(ensemble.majority_logic.to_bits(), spec.expected.to_bits());
  EXPECT_EQ(ensemble.replicate_matches.size(), 3u);
  const auto summary = core::render_ensemble_summary(ensemble);
  EXPECT_NE(summary.find("majority verify: MATCH"), std::string::npos);
}

// ------------------------------------------------------------------ CLI

TEST(Cli, EnsembleOutputIsIdenticalAcrossJobsFlag) {
  const std::vector<std::string> base{"ensemble", "0x1", "--replicates", "3",
                                      "--total-time", "400", "--seed", "7"};
  std::ostringstream out1, err1, out8, err8;
  std::vector<std::string> serial = base;
  serial.insert(serial.end(), {"--jobs", "1"});
  std::vector<std::string> parallel = base;
  parallel.insert(parallel.end(), {"--jobs=8"});
  const int code1 = app::run_cli(serial, out1, err1);
  const int code8 = app::run_cli(parallel, out8, err8);
  EXPECT_EQ(code1, code8);
  EXPECT_EQ(out1.str(), out8.str());
  EXPECT_NE(out1.str().find("majority logic"), std::string::npos);
}

TEST(Cli, JobsFlagRejectsGarbage) {
  for (const std::string bad : {"many", "-4", "4x", ""}) {
    std::ostringstream out, err;
    EXPECT_EQ(app::run_cli({"list", "--jobs", bad}, out, err), 2) << bad;
    EXPECT_NE(err.str().find("--jobs"), std::string::npos) << bad;
  }
  std::ostringstream out, err;
  EXPECT_EQ(app::run_cli({"list", "--jobs"}, out, err), 2);
}

}  // namespace
