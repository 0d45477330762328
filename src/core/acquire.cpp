#include "core/acquire.h"

#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "store/digitizing_sink.h"
#include "store/memory_sink.h"
#include "store/spill_sink.h"
#include "util/errors.h"
#include "util/timer.h"

namespace glva::core {

namespace {

std::string archive_stem(const circuits::CircuitSpec& spec,
                         const ExperimentConfig& config) {
  return config.spill_stem.empty()
             ? spec.name + "-s" + std::to_string(config.seed)
             : config.spill_stem;
}

/// The file config's replicate is archived to ("" when it archives
/// nothing), with its directory created.
std::string archive_path(const circuits::CircuitSpec& spec,
                         const ExperimentConfig& config) {
  if (!writes_archive(config)) return {};
  std::filesystem::create_directories(config.spill_dir);
  return (std::filesystem::path(config.spill_dir) /
          (archive_stem(spec, config) + ".glvt"))
      .string();
}

/// Hands every row and hold to each sink in turn (the sampler delivers
/// holds; blocks fall back to the base row loop).
class TeeSink final : public store::TraceSink {
public:
  explicit TeeSink(std::vector<store::TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void begin(const std::vector<std::string>& species_names) override {
    for (store::TraceSink* sink : sinks_) sink->begin(species_names);
  }
  void append(double time, const std::vector<double>& values) override {
    for (store::TraceSink* sink : sinks_) sink->append(time, values);
  }
  void append_hold(std::span<const double> times,
                   const std::vector<double>& values) override {
    for (store::TraceSink* sink : sinks_) sink->append_hold(times, values);
  }
  void finish() override {
    for (store::TraceSink* sink : sinks_) sink->finish();
  }

private:
  std::vector<store::TraceSink*> sinks_;
};

/// One pass of config's sweep: digitize the I/O planes, archive the
/// replicate as configured, and hand the rows to `trace` too when given.
Acquisition run_pass(const circuits::CircuitSpec& spec,
                     const ExperimentConfig& config, store::TraceSink* trace) {
  validate(config);
  sim::LabOptions lab_options;
  lab_options.sampling_period = config.sampling_period;
  lab_options.seed = config.seed;
  lab_options.method = config.method;
  sim::VirtualLab lab(spec.model, lab_options);
  lab.declare_inputs(spec.input_ids);

  const std::string archive = archive_path(spec, config);
  store::DigitizingSink digitizer = [&] {
    if (config.sink != store::SinkKind::kDigitize || archive.empty()) {
      return store::DigitizingSink(plane_names(spec), config.threshold);
    }
    store::DigitizingSink::SpillOptions spill;
    spill.path = archive;
    spill.seed = config.seed;
    spill.sampling_period = config.sampling_period;
    return store::DigitizingSink(plane_names(spec), config.threshold,
                                 std::move(spill));
  }();
  std::optional<store::SpillSink> analog;
  if (config.sink == store::SinkKind::kSpill) {
    store::SpillSink::Options options;
    options.seed = config.seed;
    options.sampling_period = config.sampling_period;
    analog.emplace(archive, options);
  }
  std::vector<store::TraceSink*> sinks{&digitizer};
  if (analog) sinks.push_back(&*analog);
  if (trace != nullptr) sinks.push_back(trace);
  TeeSink tee(std::move(sinks));

  Acquisition acquired;
  const auto start = std::chrono::steady_clock::now();
  {
    GLVA_SPAN("simulate");
    acquired.schedule = lab.run_combination_sweep_into(
        config.total_time, config.high_level(), tee);
  }
  acquired.simulate_seconds = util::seconds_since(start);
  acquired.planes = take_digitized(digitizer, spec.input_ids.size());
  return acquired;
}

}  // namespace

void validate(const ExperimentConfig& config) {
  require_finite_positive(config.total_time, "experiment: total_time");
  require_finite_positive(config.sampling_period,
                          "experiment: sampling_period");
  require_finite_positive(config.threshold, "experiment: threshold");
  if (!(config.fov_ud > 0.0 && config.fov_ud <= 1.0)) {
    throw InvalidArgument("experiment: fov_ud must be in (0, 1]");
  }
  if (config.sink == store::SinkKind::kSpill && config.spill_dir.empty()) {
    throw InvalidArgument(
        "experiment: sink 'spill' archives into a spill directory "
        "(--spill-dir)");
  }
}

bool writes_archive(const ExperimentConfig& config) noexcept {
  return !config.spill_dir.empty() && config.sink != store::SinkKind::kMemory;
}

std::vector<std::string> plane_names(const circuits::CircuitSpec& spec) {
  std::vector<std::string> names = spec.input_ids;
  names.push_back(spec.output_id);
  return names;
}

Acquisition acquire(const circuits::CircuitSpec& spec,
                    const ExperimentConfig& config) {
  return run_pass(spec, config, nullptr);
}

sim::SweepResult simulate_trace(const circuits::CircuitSpec& spec,
                                const ExperimentConfig& config) {
  store::MemorySink memory;
  Acquisition acquired = run_pass(spec, config, &memory);
  return sim::SweepResult{memory.take(), std::move(acquired.schedule)};
}

ExperimentConfig job_config(const circuits::CircuitSpec& spec,
                            const ExperimentConfig& config, const char* tag,
                            std::size_t index) {
  ExperimentConfig job = config;
  job.spill_stem = archive_stem(spec, config) + tag + std::to_string(index);
  return job;
}

}  // namespace glva::core
