#pragma once

// Shared pieces of the perfbench binary: run arguments, the metric report,
// the workload op lists, and the decomposed (traced) pipeline that re-drives
// one op layer by layer through the public functions of each src/ module.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "app/request.h"
#include "core/adc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrunk so a run takes seconds.
  bool toy = false;
  /// Per-run scratch directory (spill files, the daemon socket); created
  /// and removed by main.
  std::string scratch;
};

/// What one run prints as its last line.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Count one failed op and say why on the error stream.
  void fail(const std::string& why);
  [[nodiscard]] std::string json() const;
};

/// Nearest-rank percentile: the value at rank ceil(p * n) of the sorted
/// sample, p in (0, 1]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Workload seed `index` derived from the run's --seed: the program only
/// ever sees these generated values. Kept below 2^31 so every request
/// spells a plain positive integer.
[[nodiscard]] std::uint64_t op_seed(std::uint64_t run_seed, std::uint64_t index);

/// Grid samples one replicate of `config` carries (the sampler's grid:
/// k * sampling_period for every k with k * period <= total_time).
[[nodiscard]] std::uint64_t grid_samples(const glva::core::ExperimentConfig& config);

/// One CLI-equivalent operation: the options as a user would type them,
/// parsed by the same app::parse_request the daemon uses.
struct Op {
  glva::app::Request::Op kind = glva::app::Request::Op::kVerify;
  std::string target;
  std::vector<std::string> options;
  std::size_t jobs = 1;  ///< worker count the op fans out over
  glva::app::Request request;
  std::uint64_t samples = 0;  ///< grid samples over all replicates
  /// Acquisition as spelled in the workload table: every replicate is
  /// archived as a .glvt under `spill_dir` and replayed from there.
  bool spills = false;
  std::string spill_dir;
};

[[nodiscard]] Op make_op(glva::app::Request::Op kind, std::string target,
                         std::vector<std::string> options, std::size_t jobs);

/// The two properties of the spill_check workload (also issued by
/// serve_mix), canonical spelling.
inline const char* const kCheckProperties =
    "(C->F[0,400]GFP)&noglitch[5]GFP;G(A->F[0,200]GFP)";

// ---------------------------------------------------------------------------
// Decomposed pipeline (the traced run)
// ---------------------------------------------------------------------------

/// Seconds spent in each layer by one decomposed op.
struct LayerTimes {
  double spec = 0.0;      ///< circuits: catalog spec build
  double compile = 0.0;   ///< sim: VirtualLab + declare_inputs + network()
  double ssa = 0.0;       ///< sim: sweep time outside the sink
  double sink = 0.0;      ///< store: time inside the op's TraceSink
  double replay = 0.0;    ///< store: SpillReader open + replay
  double digitize = 0.0;  ///< core: digitize_packed / take_digitized
  double analyze = 0.0;   ///< core: analyze_packed + verify
  double monitor = 0.0;   ///< props: evaluate_packed + reduction

  [[nodiscard]] double sum() const noexcept {
    return spec + compile + ssa + sink + replay + digitize + analyze + monitor;
  }
  LayerTimes& operator+=(const LayerTimes& other) noexcept;
};

/// One op re-driven layer by layer on the calling thread.
struct Decomposed {
  LayerTimes layers;
  double wall = 0.0;  ///< the decomposed op's own wall time
  /// Per-replicate result fingerprints, comparable with reference().
  std::vector<std::string> fingerprints;
  std::uint64_t samples = 0;      ///< grid samples the sinks received
  std::uint64_t spill_bytes = 0;  ///< .glvt bytes on disk
  /// Spill ops only: the planes replayed from each replicate's .glvt.
  std::vector<glva::core::PackedDigitalData> replayed_planes;
};

/// Decompose `op`; spill ops write their .glvt files under `spill_dir`.
[[nodiscard]] Decomposed decompose(const Op& op, const std::string& spill_dir);

/// Run `op` through app::execute over `jobs` workers and return the
/// response plus per-replicate fingerprints captured through the
/// execution hooks.
struct Reference {
  glva::app::Response response;
  std::vector<std::string> fingerprints;
  double seconds = 0.0;
};
[[nodiscard]] Reference reference(const Op& op, std::size_t jobs);

/// Spill ops: re-simulate each replicate into an in-memory DigitizingSink
/// and compare its planes with the replayed ones. Returns "" when they are
/// identical, else what differs.
[[nodiscard]] std::string check_replayed_planes(const Op& op,
                                                const Decomposed& decomposed);

/// Counter and histogram totals of interest, read from obs::snapshot().
struct Counters {
  std::uint64_t ssa_steps = 0;
  std::uint64_t ssa_firings = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t digitize_samples = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t reduce_stall_us = 0;
  double flush_wait_us = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] static Counters read();
  [[nodiscard]] Counters operator-(const Counters& before) const noexcept;
  Counters& operator+=(const Counters& other) noexcept;
};

/// The serve.* per-layer numbers; all zero on the workloads without
/// daemon traffic.
struct ServeStats {
  double hit_ms_p50 = 0.0;
  double miss_ms_p50 = 0.0;
  double overhead_ms = 0.0;
  double cache_hit_frac = 0.0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
};

/// Sums of the program's own GLVA_SPAN durations, in seconds.
struct SpanSums {
  double simulate = 0.0;
  double digitize = 0.0;
  double spill_replay = 0.0;
  double analyze = 0.0;

  /// Drain the tracer and add up the events by span name.
  void add_drained();
};

/// Accumulates the traced run's per-op numbers into the per-layer metrics.
struct TraceTotals {
  std::size_t ops = 0;
  std::size_t workers = 1;
  LayerTimes layers;
  double decomposed_wall = 0.0;  ///< sum of Decomposed::wall
  double untraced_wall = 0.0;    ///< app::execute at the worker count
  double untraced_single = 0.0;  ///< app::execute on one thread
  std::uint64_t samples = 0;
  std::uint64_t spill_bytes = 0;
  Counters decomposed_counters;  ///< deltas around the decomposed ops
  Counters untraced_counters;    ///< deltas around the untraced ops
  SpanSums spans;
  ServeStats serve;

  /// Emit every per-layer metric. Counter-derived ones are left out of a
  /// GLVA_NO_METRICS build (absent, not zero).
  void emit(Report& report) const;
};

/// Trace one op: untraced app::execute at `workers` (with the program's
/// spans captured), an untraced single-thread run when workers > 1, then
/// the decomposed pipeline; checks that all agree. Adds to `totals`,
/// counts a failure in `report` when they disagree. Returns the untraced
/// run at `workers` (seconds 0 when the op threw).
Reference trace_op(const Op& op, std::size_t workers,
                   const std::string& spill_dir, TraceTotals& totals,
                   Report& report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// True for paper_ensemble, deep_verify and spill_check.
[[nodiscard]] bool is_app_workload(const std::string& name);

/// paper_ensemble, deep_verify, spill_check: untraced or traced run.
[[nodiscard]] Report run_app_workload(const Args& args);

/// serve_mix: untraced or traced run.
[[nodiscard]] Report run_serve_mix(const Args& args);

/// The CPU slots a run rotates its ops over. On a shared host the vCPUs of
/// one machine run at different speeds (by up to a third, shifting over
/// minutes with co-tenant load), and a busy thread stays on the CPU it
/// started on, so an unpinned run reports whichever CPU it landed on.
/// Rotating the ops over every slot and averaging per-slot statistics
/// reports the machine's average instead. Slot k is `width` consecutive
/// CPUs of the process's allowed set, starting at its k-th CPU.
class CpuSlots {
public:
  explicit CpuSlots(std::size_t width);

  [[nodiscard]] std::size_t count() const noexcept { return slots_.size(); }
  /// Pin thread `tid` (0: the calling thread), and the threads it creates
  /// from now on, to slot `k`.
  void pin(std::size_t k, int tid = 0) const;
  /// Restore the CPU set the process started with on thread `tid` (0: the
  /// calling thread).
  void unpin(int tid = 0) const;

private:
  std::vector<std::vector<int>> slots_;
  std::vector<int> all_;
};

/// Kernel thread ids of this process's threads.
[[nodiscard]] std::vector<int> thread_ids();

/// The mean over slots of each slot's percentile (slots without samples
/// are skipped).
[[nodiscard]] double slot_percentile(
    const std::vector<std::vector<double>>& per_slot, double p);

/// Set-up is repeated at least this many times, and for at least this long,
/// per run.
inline constexpr std::size_t kSetupMinRepeats = 32;
inline constexpr double kSetupMinSeconds = 0.25;

/// Seconds one set-up takes: repeated calls of `setup` (timed) and
/// `teardown` (untimed), rotated over the CPU slots, reduced with
/// slot_percentile at the median. A last, unpinned `setup` stays in place
/// for the run.
template <typename Setup, typename Teardown>
double measure_setup_seconds(const CpuSlots& slots, Setup&& setup,
                             Teardown&& teardown) {
  std::vector<std::vector<double>> seconds(slots.count());
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep < kSetupMinRepeats || seconds_since(start) < kSetupMinSeconds;
       ++rep) {
    const std::size_t k = rep % slots.count();
    slots.pin(k);
    const auto one = Clock::now();
    setup();
    seconds[k].push_back(seconds_since(one));
    teardown();
  }
  slots.unpin();
  setup();
  return slot_percentile(seconds, 0.5);
}

/// Resident-set high-water mark of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
