// Trace-I/O bench: the bounded-memory contract of the store/ subsystem on
// a deep single-combination run. One input combination (all inputs high at
// ThVAL) is held for the whole run while the sampler streams 10^7+ grid
// samples into the selected sink:
//
//   mem       materialize the sim::Trace, digitize afterwards (reference;
//             resident memory grows as samples · 8 bytes · model species)
//   spill     stream to a chunked .glvt file, then replay the chunks into
//             the digitizer — resident memory is one chunk + the planes
//   digitize  fuse the ADC into the sampler — resident memory is
//             samples / 8 bytes per tracked species, nothing else
//   all       run all three and check their analyses agree bit for bit
//
// Shape target: at --samples 10000000 the digitize and spill paths hold
// peak RSS under --rss-budget-mb (exit 1 otherwise) while producing the
// same extraction the memory path does. With --no-timings the output is
// byte-stable for a fixed seed (the golden regression pins `--sink all`).
//
// Two follow-on sections ride on the same run:
//   - whenever a spill file was written, the format section reports its
//     size next to what a raw time column would have cost (the v1 layout:
//     the v2 size less the 12 header bytes v2 added, plus every byte the
//     grid sections saved, which the spill.bytes_saved counter records),
//     and --min-size-ratio gates the ratio;
//   - --ensemble-replicates N runs an N-replicate digitize-sink ensemble
//     through the streaming reduction (core::run_ensemble) and reports the
//     majority logic plus, with timings on, the process peak RSS — the
//     O(1)-per-replicate memory bound made visible.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <chrono>
#include <filesystem>

#include "circuits/circuit_repository.h"
#include "core/adc.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/logic_analyzer.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace glva;

/// Peak resident set of this process in MiB, or a negative value when the
/// platform offers no getrusage.
double peak_rss_mb() {
#if defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#elif defined(__unix__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return -1.0;
#endif
}

using util::seconds_since;

struct SinkRun {
  core::ExtractionResult extraction;
  std::size_t samples = 0;
  double simulate_seconds = 0.0;
  double analyze_seconds = 0.0;
  /// What the spill sink's grid time sections saved over raw time columns
  /// (the spill.bytes_saved delta; 0 for the other sinks).
  std::uint64_t grid_bytes_saved = 0;
};

/// The current value of a metrics counter (0 when it has not fired yet).
std::uint64_t counter_value(const std::string& name) {
  for (const auto& sample : obs::snapshot().counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

std::string spill_path_for(const circuits::CircuitSpec& spec,
                           const std::string& spill_dir, std::uint64_t seed) {
  return (std::filesystem::path(spill_dir) /
          (spec.name + "-bench-s" + std::to_string(seed) + ".glvt"))
      .string();
}

SinkRun run_with_sink(const circuits::CircuitSpec& spec,
                      const std::string& sink_name, double total_time,
                      double sampling_period, double threshold, double fov_ud,
                      std::uint64_t seed, const std::string& spill_dir) {
  sim::LabOptions options;
  options.sampling_period = sampling_period;
  options.seed = seed;
  sim::VirtualLab lab(spec.model, options);
  lab.declare_inputs(spec.input_ids);

  // The single combination: every input clamped high (at ThVAL, the
  // paper's drive level) for the whole run.
  const sim::InputSchedule schedule = sim::InputSchedule::constant(
      spec.input_ids,
      std::vector<double>(spec.input_ids.size(), threshold));

  std::vector<std::string> tracked = spec.input_ids;
  tracked.push_back(spec.output_id);

  SinkRun run;
  core::PackedDigitalData data;
  const auto sim_start = std::chrono::steady_clock::now();
  if (sink_name == "mem") {
    const sim::Trace trace = lab.run(schedule, total_time);
    run.simulate_seconds = seconds_since(sim_start);
    const auto analyze_start = std::chrono::steady_clock::now();
    data = core::digitize_packed(trace, spec.input_ids, spec.output_id,
                                 threshold);
    run.analyze_seconds = seconds_since(analyze_start);
  } else if (sink_name == "digitize") {
    store::DigitizingSink sink(tracked, threshold);
    lab.run_into(schedule, total_time, sink);
    run.simulate_seconds = seconds_since(sim_start);
    data = core::take_digitized(sink, spec.input_ids.size());
  } else {  // spill
    std::filesystem::create_directories(spill_dir);
    const std::string path = spill_path_for(spec, spill_dir, seed);
    store::SpillSink::Options spill_options;
    spill_options.seed = seed;
    spill_options.sampling_period = sampling_period;
    store::SpillSink sink(path, spill_options);
    const std::uint64_t saved_before = counter_value("spill.bytes_saved");
    lab.run_into(schedule, total_time, sink);
    run.simulate_seconds = seconds_since(sim_start);
    run.grid_bytes_saved = counter_value("spill.bytes_saved") - saved_before;

    const auto analyze_start = std::chrono::steady_clock::now();
    store::SpillReader reader(path);
    store::DigitizingSink digitizer(tracked, threshold);
    reader.replay(digitizer);
    data = core::take_digitized(digitizer, spec.input_ids.size());
    run.analyze_seconds = seconds_since(analyze_start);
  }

  run.samples = data.sample_count();
  const auto analyze_start = std::chrono::steady_clock::now();
  const core::LogicAnalyzer analyzer(core::AnalyzerConfig{
      threshold, fov_ud, core::AnalysisBackend::kPacked});
  run.extraction =
      analyzer.analyze_packed(data, spec.input_ids, spec.output_id);
  run.analyze_seconds += seconds_since(analyze_start);
  return run;
}

bool extractions_agree(const core::ExtractionResult& a,
                       const core::ExtractionResult& b) {
  if (a.expression() != b.expression() || a.fitness() != b.fitness()) {
    return false;
  }
  if (a.variation.records.size() != b.variation.records.size()) return false;
  for (std::size_t c = 0; c < a.variation.records.size(); ++c) {
    const auto& ra = a.variation.records[c];
    const auto& rb = b.variation.records[c];
    if (ra.case_count != rb.case_count || ra.high_count != rb.high_count ||
        ra.variation_count != rb.variation_count) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("circuit", "myers_and", "catalog circuit to run");
  cli.add_option("total-time", "10000", "run duration (time units)");
  cli.add_option("samples", "10000000",
                 "target grid samples (sampling period = total-time / "
                 "samples)");
  cli.add_option("threshold", "15", "ThVAL (molecules); inputs held at it");
  cli.add_option("fov-ud", "0.25", "FOV_UD");
  cli.add_option("seed", "1", "simulation seed");
  cli.add_option("sink", "digitize", "mem | spill | digitize | all");
  cli.add_option("spill-dir", "",
                 "directory for .glvt files (default: <tmp>/glva-trace-io)");
  cli.add_option("min-size-ratio", "0",
                 "fail (exit 1) when the raw-time-column (v1) / v2 spill "
                 "size ratio falls below this (0 = report only; the format "
                 "section runs whenever the spill sink does)");
  cli.add_option("rss-budget-mb", "512",
                 "fail (exit 1) when peak RSS exceeds this many MiB "
                 "(checked only when timings are on)");
  cli.add_option("ensemble-replicates", "0",
                 "also run an N-replicate digitize-sink ensemble through "
                 "the streaming reduction and report its peak RSS (0 = "
                 "skip; uses --total-time/--samples per replicate)");
  cli.add_option("ensemble-jobs", "2",
                 "worker threads for the ensemble section (0 = one per "
                 "hardware thread)");
  cli.add_flag("no-timings",
               "omit wall-clock and RSS lines (deterministic output for the "
               "golden regression)");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("bench_trace_io");
    return 0;
  }
  const bool timings = !cli.get_flag("no-timings");

  const auto spec = circuits::CircuitRepository::build(cli.get("circuit"));
  const double total_time = cli.get_double("total-time");
  const double samples = cli.get_double("samples");
  if (total_time <= 0.0 || samples < 1.0) {
    std::cerr << "bench_trace_io: --total-time and --samples must be "
                 "positive\n";
    return 2;
  }
  const double sampling_period = total_time / samples;
  const double threshold = cli.get_double("threshold");
  const double fov_ud = cli.get_double("fov-ud");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::string spill_dir = cli.get("spill-dir");
  if (spill_dir.empty()) {
    spill_dir = (std::filesystem::temp_directory_path() / "glva-trace-io")
                    .string();
  }

  const std::string sink_arg = cli.get("sink");
  std::vector<std::string> sinks;
  if (sink_arg == "all") {
    sinks = {"mem", "spill", "digitize"};
  } else if (sink_arg == "mem" || sink_arg == "spill" ||
             sink_arg == "digitize") {
    sinks = {sink_arg};
  } else {
    std::cerr << "bench_trace_io: unknown --sink '" << sink_arg
              << "' (expected mem | spill | digitize | all)\n";
    return 2;
  }

  std::cout << "=== trace I/O: single-combination deep run ===\n"
            << "circuit " << spec.name << ", inputs "
            << util::join(spec.input_ids, ",") << " held high at ThVAL "
            << util::format_double(threshold, 4) << ", total_time "
            << util::format_double(total_time, 6) << ", target samples "
            << util::format_double(samples, 0) << "\n\n";

  std::vector<SinkRun> runs;
  for (const auto& sink : sinks) {
    SinkRun run = run_with_sink(spec, sink, total_time, sampling_period,
                                threshold, fov_ud, seed, spill_dir);
    std::cout << "--- sink: " << sink << " ---\n"
              << "samples:    " << run.samples << "\n"
              << "expression: " << spec.output_id << " = "
              << run.extraction.expression() << "\n"
              << "fitness:    "
              << util::format_double(run.extraction.fitness(), 5) << " %\n"
              << core::render_analytics_table(run.extraction);
    if (timings) {
      std::cout << "timing:     simulate "
                << util::format_double(run.simulate_seconds, 3)
                << " s, digitize+analyze "
                << util::format_double(run.analyze_seconds, 3) << " s\n";
    }
    std::cout << "\n";
    runs.push_back(std::move(run));
  }

  bool agree = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    agree = agree && extractions_agree(runs[0].extraction,
                                       runs[i].extraction) &&
            runs[0].samples == runs[i].samples;
  }
  if (runs.size() > 1) {
    std::cout << "sinks agree: " << (agree ? "yes" : "NO") << "\n";
  }

  int rc = agree ? 0 : 1;

  // Format: the sampler-written .glvt beside what the same file costs with
  // a raw time column (.glvt v1 layout). Both sizes and the ratio are
  // deterministic for a fixed seed, so the golden pins them.
  const auto spill_run = std::find(sinks.begin(), sinks.end(), "spill");
  if (spill_run != sinks.end()) {
    const SinkRun& run = runs[static_cast<std::size_t>(spill_run -
                                                       sinks.begin())];
    const auto v2_size =
        std::filesystem::file_size(spill_path_for(spec, spill_dir, seed));
    const std::uint64_t v1_size =
        v2_size - (store::glvt::kHeaderFixedBytesV2 -
                   store::glvt::kHeaderFixedBytes) +
        run.grid_bytes_saved;
    const double ratio = v2_size > 0 ? static_cast<double>(v1_size) /
                                           static_cast<double>(v2_size)
                                     : 0.0;
    std::cout << "\n--- format: .glvt v1 vs v2 ---\n"
              << "v1 size:    " << v1_size << " bytes (raw time column)\n"
              << "v2 size:    " << v2_size << " bytes (implicit-grid times)\n"
              << "ratio:      " << util::format_double(ratio, 2)
              << "x smaller\n";
    const double min_ratio = cli.get_double("min-size-ratio");
    if (min_ratio > 0.0 && ratio < min_ratio) {
      std::cout << "size ratio below --min-size-ratio "
                << util::format_double(min_ratio, 2) << " -> FAIL\n";
      rc = 1;
    }
  }

  // Streaming-reduction ensemble: N digitize-sink replicates of the full
  // combination-sweep experiment, folded replicate by replicate — the
  // fleet never materializes, so peak RSS stays at the in-flight window.
  const long long ensemble_replicates = cli.get_int("ensemble-replicates");
  if (ensemble_replicates > 0) {
    core::ExperimentConfig config;
    config.total_time = total_time;
    config.sampling_period = sampling_period;
    config.threshold = threshold;
    config.fov_ud = fov_ud;
    config.seed = seed;
    config.sink = store::SinkKind::kDigitize;
    const auto ensemble_jobs =
        static_cast<std::size_t>(cli.get_int("ensemble-jobs"));
    const auto ensemble_start = std::chrono::steady_clock::now();
    const auto ensemble = core::run_ensemble(
        spec, config, static_cast<std::size_t>(ensemble_replicates),
        ensemble_jobs);
    const double ensemble_seconds = seconds_since(ensemble_start);
    std::cout << "\n--- ensemble: streaming reduction, digitize sink ---\n"
              << "replicates: " << ensemble.replicate_count << " x "
              << util::format_double(samples, 0) << " samples (jobs "
              << ensemble_jobs << ")\n"
              << "majority:   " << ensemble.output_name << " bits 0x"
              << std::hex << ensemble.majority_logic.to_bits() << std::dec
              << ", " << ensemble.match_count << "/"
              << ensemble.replicate_count << " replicates match\n";
    if (timings) {
      std::cout << "timing:     " << util::format_double(ensemble_seconds, 3)
                << " s; peak RSS after ensemble "
                << util::format_double(peak_rss_mb(), 1) << " MiB\n";
    }
  }
  if (timings) {
    const double rss = peak_rss_mb();
    const double budget = cli.get_double("rss-budget-mb");
    if (rss >= 0.0) {
      const bool within = rss <= budget;
      std::cout << "peak RSS:    " << util::format_double(rss, 5)
                << " MiB (budget " << util::format_double(budget, 5)
                << " MiB) -> " << (within ? "within budget" : "EXCEEDED")
                << "\n";
      if (!within) rc = 1;
    } else {
      std::cout << "peak RSS:    unavailable on this platform\n";
    }
  }
  return rc;
}
