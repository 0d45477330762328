// The traced run's decomposition: one op re-driven layer by layer through
// the public functions of each src/ module, each call timed from here, so
// the layer times add up against the op's own wall time without any
// instrumentation inside the program.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <span>

#include "bench.h"
#include "circuits/circuit_repository.h"
#include "core/logic_analyzer.h"
#include "core/verifier.h"
#include "exec/seed_sequence.h"
#include "logic/combination_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "props/monitor.h"
#include "props/parser.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/memory_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace glva;

// ---------------------------------------------------------------------------
// Report and small helpers
// ---------------------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    std::cerr << "perfbench: metric " << name << " is not finite; reported as 0\n";
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& why) {
  ++failed;
  std::cerr << "perfbench: FAILED op: " << why << "\n";
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t op_seed(std::uint64_t run_seed, std::uint64_t index) {
  return exec::derive_seed(run_seed, index) % 2147483647u + 1;
}

std::uint64_t grid_samples(const core::ExperimentConfig& config) {
  // The sampler emits grid point k while k * period <= total_time (with
  // the same relative tolerance it uses for an exact final multiple).
  const double period = config.sampling_period;
  const double limit = config.total_time + period * 1e-9;
  auto k = static_cast<std::uint64_t>(config.total_time / period);
  while (static_cast<double>(k + 1) * period <= limit) ++k;
  while (k > 0 && static_cast<double>(k) * period > limit) --k;
  return k + 1;
}

Op make_op(app::Request::Op kind, std::string target,
           std::vector<std::string> options, std::size_t jobs) {
  Op op;
  op.kind = kind;
  op.target = std::move(target);
  op.options = std::move(options);
  op.jobs = jobs;
  op.request = app::parse_request(kind, op.target, op.options);
  const std::size_t replicates =
      kind == app::Request::Op::kVerify ? 1 : op.request.replicates;
  op.samples = grid_samples(op.request.config) * replicates;
  return op;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& other) noexcept {
  spec += other.spec;
  compile += other.compile;
  ssa += other.ssa;
  sink += other.sink;
  replay += other.replay;
  digitize += other.digitize;
  analyze += other.analyze;
  monitor += other.monitor;
  return *this;
}

namespace {

std::string hex(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// Everything that identifies one replicate's extraction, exact doubles.
std::string fingerprint(const core::ExtractionResult& extraction) {
  std::string f = extraction.expression() + "|" + hex(extraction.fitness());
  for (const core::VariationRecord& r : extraction.variation.records) {
    f += "|" + std::to_string(r.case_count) + "," +
         std::to_string(r.high_count) + "," +
         std::to_string(r.variation_count) + "," + hex(r.fov_est);
  }
  f += "|";
  const std::size_t rows = std::size_t{1} << extraction.input_count;
  for (std::size_t c = 0; c < rows; ++c) {
    f += extraction.extracted().output(c) ? '1' : '0';
  }
  return f;
}

/// Everything that identifies one replicate's property verdicts.
std::string fingerprint(const props::CheckReplicate& replicate) {
  std::string f = std::to_string(replicate.seed);
  const auto field = [&f](char separator, std::size_t value) {
    f += separator;
    f += std::to_string(value);
  };
  field('|', replicate.sample_count);
  for (const props::PropertyCheck& p : replicate.properties) {
    f += '|';
    f += p.property;
    field(':', p.samples);
    field(',', p.satisfied);
    field(',', p.first_violation);
    for (const props::CombinationCheck& c : p.combinations) {
      field(';', c.samples);
      field(',', c.satisfied);
      field(',', c.first_violation);
    }
  }
  return f;
}

/// Forwarding sink that times every call into the wrapped sink.
class TimedSink final : public store::TraceSink {
public:
  explicit TimedSink(store::TraceSink& inner) : inner_(inner) {}

  void begin(const std::vector<std::string>& species_names) override {
    const auto start = Clock::now();
    inner_.begin(species_names);
    seconds_ += seconds_since(start);
  }
  void append(double time, const std::vector<double>& values) override {
    const auto start = Clock::now();
    inner_.append(time, values);
    seconds_ += seconds_since(start);
    ++samples_;
  }
  void append_block(std::span<const double> times,
                    std::span<const std::span<const double>> series) override {
    const auto start = Clock::now();
    inner_.append_block(times, series);
    seconds_ += seconds_since(start);
    samples_ += times.size();
  }
  void finish() override {
    const auto start = Clock::now();
    inner_.finish();
    seconds_ += seconds_since(start);
  }

  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

private:
  store::TraceSink& inner_;
  double seconds_ = 0.0;
  std::uint64_t samples_ = 0;
};

std::vector<std::uint64_t> replicate_seeds(const Op& op) {
  if (op.kind == app::Request::Op::kVerify) return {op.request.config.seed};
  return exec::SeedSequence(op.request.config.seed)
      .first(op.request.replicates);
}

sim::VirtualLab make_lab(const circuits::CircuitSpec& spec,
                         const core::ExperimentConfig& config) {
  sim::LabOptions options;
  options.sampling_period = config.sampling_period;
  options.seed = config.seed;
  options.method = config.method;
  sim::VirtualLab lab(spec.model, options);
  lab.declare_inputs(spec.input_ids);
  static_cast<void>(lab.network());
  return lab;
}

/// Turns the program's span tracer on for one scope.
struct TraceWindow {
  TraceWindow() { obs::trace_begin(); }
  ~TraceWindow() { obs::trace_end(); }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;
};

std::vector<std::string> plane_names(const circuits::CircuitSpec& spec) {
  std::vector<std::string> names = spec.input_ids;
  names.push_back(spec.output_id);
  return names;
}

/// One monitor pass per property, then the per-combination reduction:
/// satisfaction counts through the combination masks, the first violation
/// from the first nonzero word of mask & ~verdict.
props::CheckReplicate monitor(const core::PackedDigitalData& data,
                              const std::vector<std::string>& names,
                              const std::vector<props::PropertyPtr>& properties,
                              std::uint64_t seed) {
  props::CheckReplicate replicate;
  replicate.seed = seed;
  replicate.sample_count = data.sample_count();
  const logic::CombinationIndex index(data.inputs);
  props::PackedNamedPlanes planes;
  planes.names = names;
  for (const logic::BitStream& input : data.inputs) planes.planes.push_back(&input);
  planes.planes.push_back(&data.output);

  for (const props::PropertyPtr& property : properties) {
    const logic::BitStream verdict = props::evaluate_packed(*property, planes);
    const std::span<const std::uint64_t> v = verdict.words();
    props::PropertyCheck check;
    check.property = props::to_string(*property);
    check.samples = data.sample_count();
    for (std::size_t c = 0; c < index.combination_count(); ++c) {
      const std::span<const std::uint64_t> m = index.mask(c).words();
      props::CombinationCheck comb;
      comb.combination = c;
      comb.samples = index.count(c);
      comb.satisfied = logic::and_popcount(index.mask(c), verdict);
      for (std::size_t w = 0; w < m.size(); ++w) {
        const std::uint64_t bad = m[w] & ~v[w];
        if (bad != 0) {
          comb.first_violation =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bad));
          break;
        }
      }
      check.satisfied += comb.satisfied;
      check.first_violation = std::min(check.first_violation, comb.first_violation);
      check.combinations.push_back(comb);
    }
    replicate.properties.push_back(std::move(check));
  }
  return replicate;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decomposition
// ---------------------------------------------------------------------------

Decomposed decompose(const Op& op, const std::string& spill_dir) {
  const auto op_start = Clock::now();
  double excluded = 0.0;  // result bookkeeping, not part of the op
  Decomposed d;
  LayerTimes& layers = d.layers;
  const app::Request& request = op.request;

  auto start = Clock::now();
  const circuits::CircuitSpec spec =
      circuits::CircuitRepository::build(request.target, request.two_stage);
  layers.spec += seconds_since(start);

  std::vector<props::PropertyPtr> properties;
  start = Clock::now();
  for (const std::string& text : request.properties) {
    properties.push_back(props::parse_property(text));
  }
  layers.monitor += seconds_since(start);

  const std::vector<std::string> names = plane_names(spec);
  if (op.spills) fs::create_directories(spill_dir);
  for (const std::uint64_t seed : replicate_seeds(op)) {
    core::ExperimentConfig config = request.config;
    config.seed = seed;

    start = Clock::now();
    sim::VirtualLab lab = make_lab(spec, config);
    layers.compile += seconds_since(start);

    core::PackedDigitalData data;
    if (op.spills) {
      const std::string path =
          spill_dir + "/r" + std::to_string(d.fingerprints.size()) + ".glvt";
      start = Clock::now();
      store::SpillSink::Options spill_options;
      spill_options.seed = config.seed;
      spill_options.sampling_period = config.sampling_period;
      store::SpillSink spill(path, spill_options);
      const double open_seconds = seconds_since(start);
      TimedSink timed(spill);
      start = Clock::now();
      static_cast<void>(lab.run_combination_sweep_into(
          config.total_time, config.high_level(), timed));
      const double sweep = seconds_since(start);
      layers.sink += open_seconds + timed.seconds();
      layers.ssa += sweep - timed.seconds();
      d.samples += timed.samples();

      start = Clock::now();
      store::DigitizingSink digitizer(names, config.threshold);
      {
        store::SpillReader reader(path);
        reader.replay(digitizer);
      }
      layers.replay += seconds_since(start);
      start = Clock::now();
      data = core::take_digitized(digitizer, spec.input_ids.size());
      layers.digitize += seconds_since(start);
      d.spill_bytes += fs::file_size(path);
    } else {
      store::MemorySink memory;
      TimedSink timed(memory);
      start = Clock::now();
      static_cast<void>(lab.run_combination_sweep_into(
          config.total_time, config.high_level(), timed));
      const double sweep = seconds_since(start);
      start = Clock::now();
      sim::Trace trace = memory.take();
      layers.sink += seconds_since(start) + timed.seconds();
      layers.ssa += sweep - timed.seconds();
      d.samples += timed.samples();

      start = Clock::now();
      data = core::digitize_packed(trace, spec.input_ids, spec.output_id,
                                   config.threshold);
      layers.digitize += seconds_since(start);
      // Releasing the materialized trace is part of the memory sink's cost.
      start = Clock::now();
      { const sim::Trace released = std::move(trace); }
      layers.sink += seconds_since(start);
    }

    if (properties.empty()) {
      start = Clock::now();
      const core::LogicAnalyzer analyzer(
          core::AnalyzerConfig{config.threshold, config.fov_ud});
      const core::ExtractionResult extraction =
          analyzer.analyze_packed(data, spec.input_ids, spec.output_id);
      static_cast<void>(core::verify(extraction, spec.expected));
      layers.analyze += seconds_since(start);
      start = Clock::now();
      d.fingerprints.push_back(fingerprint(extraction));
      excluded += seconds_since(start);
    } else {
      start = Clock::now();
      const props::CheckReplicate checked =
          monitor(data, names, properties, config.seed);
      layers.monitor += seconds_since(start);
      start = Clock::now();
      d.fingerprints.push_back(fingerprint(checked));
      excluded += seconds_since(start);
    }
    if (op.spills) {
      start = Clock::now();
      d.replayed_planes.push_back(std::move(data));
      excluded += seconds_since(start);
    }
  }
  d.wall = seconds_since(op_start) - excluded;
  return d;
}

Reference reference(const Op& op, std::size_t jobs) {
  Reference ref;
  app::ExecutionHooks hooks;
  hooks.on_extraction = [&](const core::ExtractionResult& extraction) {
    ref.fingerprints.push_back(fingerprint(extraction));
  };
  hooks.on_replicate = [&](std::size_t, const core::ExperimentResult& result) {
    ref.fingerprints.push_back(fingerprint(result.extraction));
  };
  hooks.on_check_replicate = [&](std::size_t,
                                 const props::CheckReplicate& replicate) {
    ref.fingerprints.push_back(fingerprint(replicate));
  };
  app::ExecutionContext context;
  context.jobs = jobs;
  const auto start = Clock::now();
  ref.response = app::execute(op.request, context, hooks);
  ref.seconds = seconds_since(start);
  return ref;
}

std::string check_replayed_planes(const Op& op, const Decomposed& decomposed) {
  const circuits::CircuitSpec spec =
      circuits::CircuitRepository::build(op.request.target, op.request.two_stage);
  const std::vector<std::uint64_t> seeds = replicate_seeds(op);
  if (seeds.size() != decomposed.replayed_planes.size()) {
    return "expected " + std::to_string(seeds.size()) +
           " replayed replicates, got " +
           std::to_string(decomposed.replayed_planes.size());
  }
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    core::ExperimentConfig config = op.request.config;
    config.seed = seeds[r];
    sim::VirtualLab lab = make_lab(spec, config);
    store::DigitizingSink sink(plane_names(spec), config.threshold);
    static_cast<void>(lab.run_combination_sweep_into(config.total_time,
                                                     config.high_level(), sink));
    const core::PackedDigitalData memory =
        core::take_digitized(sink, spec.input_ids.size());
    const core::PackedDigitalData& replayed = decomposed.replayed_planes[r];
    if (memory.inputs != replayed.inputs || memory.output != replayed.output) {
      return "replicate " + std::to_string(r) +
             ": planes replayed from .glvt differ from in-memory digitized planes";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Counters and spans
// ---------------------------------------------------------------------------

Counters Counters::read() {
  Counters c;
  const obs::Snapshot snap = obs::snapshot();
  const std::pair<const char*, std::uint64_t*> wanted[] = {
      {"sim.ssa.steps", &c.ssa_steps},
      {"sim.ssa.firings", &c.ssa_firings},
      {"store.spill.bytes_written", &c.spill_bytes_written},
      {"store.digitize.samples", &c.digitize_samples},
      {"exec.pool.tasks", &c.pool_tasks},
      {"exec.reduce.stall_us", &c.reduce_stall_us},
      {"serve.cache.hits", &c.cache_hits},
      {"serve.cache.misses", &c.cache_misses},
  };
  for (const obs::CounterSample& sample : snap.counters) {
    for (const auto& [name, slot] : wanted) {
      if (sample.name == name) *slot = sample.value;
    }
  }
  for (const obs::HistogramSample& sample : snap.histograms) {
    if (sample.name == "spill.flush_wait_us") c.flush_wait_us = sample.sum;
  }
  return c;
}

Counters Counters::operator-(const Counters& before) const noexcept {
  Counters d = *this;
  d.ssa_steps -= before.ssa_steps;
  d.ssa_firings -= before.ssa_firings;
  d.spill_bytes_written -= before.spill_bytes_written;
  d.digitize_samples -= before.digitize_samples;
  d.pool_tasks -= before.pool_tasks;
  d.reduce_stall_us -= before.reduce_stall_us;
  d.flush_wait_us -= before.flush_wait_us;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  return d;
}

Counters& Counters::operator+=(const Counters& other) noexcept {
  ssa_steps += other.ssa_steps;
  ssa_firings += other.ssa_firings;
  spill_bytes_written += other.spill_bytes_written;
  digitize_samples += other.digitize_samples;
  pool_tasks += other.pool_tasks;
  reduce_stall_us += other.reduce_stall_us;
  flush_wait_us += other.flush_wait_us;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  return *this;
}

void SpanSums::add_drained() {
  for (const obs::TraceEvent& event : obs::drain_trace()) {
    const double seconds = static_cast<double>(event.dur_ns) * 1e-9;
    if (std::strcmp(event.name, "simulate") == 0) simulate += seconds;
    if (std::strcmp(event.name, "digitize") == 0) digitize += seconds;
    if (std::strcmp(event.name, "spill.replay") == 0) spill_replay += seconds;
    if (std::strcmp(event.name, "analyze") == 0) analyze += seconds;
  }
}

// ---------------------------------------------------------------------------
// Tracing one op
// ---------------------------------------------------------------------------

Reference trace_op(const Op& op, std::size_t workers,
                   const std::string& spill_dir, TraceTotals& totals,
                   Report& report) {
  ++report.attempted;
  const std::string label = std::string(app::op_name(op.kind)) + " " +
                            op.target + " (seed " +
                            std::to_string(op.request.config.seed) + ")";
  Reference untraced;
  std::string why;
  try {
    static_cast<void>(obs::drain_trace());
    Counters before = Counters::read();
    {
      const TraceWindow window;
      untraced = reference(op, workers);
    }
    const Counters untraced_delta = Counters::read() - before;
    totals.spans.add_drained();
    const double single =
        workers > 1 ? reference(op, 1).seconds : untraced.seconds;

    before = Counters::read();
    const Decomposed d = decompose(op, spill_dir);
    const Counters delta = Counters::read() - before;

    ++totals.ops;
    totals.layers += d.layers;
    totals.decomposed_wall += d.wall;
    totals.untraced_wall += untraced.seconds;
    totals.untraced_single += single;
    totals.samples += d.samples;
    totals.spill_bytes += d.spill_bytes;
    totals.untraced_counters += untraced_delta;
    totals.decomposed_counters += delta;

    if (d.fingerprints != untraced.fingerprints) {
      why = "decomposed result differs from app::execute";
    } else if (d.samples != op.samples) {
      why = "decomposed op carried " + std::to_string(d.samples) +
            " samples, expected " + std::to_string(op.samples);
    } else if (obs::metrics_enabled() &&
               delta.ssa_steps != untraced_delta.ssa_steps) {
      why = "decomposed SSA steps differ from app::execute";
    } else if (op.spills) {
      why = check_replayed_planes(op, d);
      if (why.empty() && obs::metrics_enabled() &&
          (delta.spill_bytes_written == 0 ||
           delta.spill_bytes_written > d.spill_bytes ||
           delta.digitize_samples != op.samples)) {
        why = "store counters disagree with the .glvt files";
      }
    }
  } catch (const std::exception& e) {
    why = e.what();
    untraced.seconds = 0.0;
  }
  if (!why.empty()) report.fail(label + ": " + why);
  std::error_code ignored;
  fs::remove_all(spill_dir, ignored);
  if (!op.spill_dir.empty()) fs::remove_all(op.spill_dir, ignored);
  return untraced;
}

void TraceTotals::emit(Report& report) const {
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  const bool counted = obs::metrics_enabled();
  const LayerTimes& l = layers;

  report.add("circuits.spec_ms", l.spec / n * 1e3, "ms");
  report.add("sim.compile_ms", l.compile / n * 1e3, "ms");
  report.add("sim.ssa_s", l.ssa / n, "s");
  if (counted) {
    const auto& c = decomposed_counters;
    report.add("sim.steps", static_cast<double>(c.ssa_steps) / n, "count");
    report.add("sim.firings", static_cast<double>(c.ssa_firings) / n, "count");
    report.add("sim.ns_per_step",
               c.ssa_steps > 0 ? l.ssa / static_cast<double>(c.ssa_steps) * 1e9
                               : 0.0,
               "ns");
  }
  report.add("store.sink_s", l.sink / n, "s");
  report.add("store.sink_ns_per_sample",
             samples > 0 ? l.sink / static_cast<double>(samples) * 1e9 : 0.0,
             "ns");
  report.add("store.replay_s", l.replay / n, "s");
  report.add("store.spill_bytes", static_cast<double>(spill_bytes) / n, "bytes");
  if (counted) {
    report.add("store.flush_wait_s",
               decomposed_counters.flush_wait_us * 1e-6 / n, "s");
  }
  report.add("core.digitize_s", l.digitize / n, "s");
  report.add("core.analyze_s", l.analyze / n, "s");
  report.add("props.monitor_s", l.monitor / n, "s");

  const double speedup =
      untraced_wall > 0.0 ? decomposed_wall / untraced_wall : 0.0;
  report.add("exec.speedup", speedup, "x");
  report.add("exec.efficiency", speedup / static_cast<double>(workers),
             "fraction");
  if (counted) {
    report.add("exec.tasks",
               static_cast<double>(untraced_counters.pool_tasks) / n, "count");
    report.add("exec.reduce_stall_s",
               static_cast<double>(untraced_counters.reduce_stall_us) * 1e-6 / n,
               "s");
  }
  report.add("app.overhead_ms", (untraced_single - l.sum()) / n * 1e3, "ms");

  report.add("serve.hit_ms_p50", serve.hit_ms_p50, "ms");
  report.add("serve.miss_ms_p50", serve.miss_ms_p50, "ms");
  report.add("serve.overhead_ms", serve.overhead_ms, "ms");
  report.add("serve.cache_hit_frac", serve.cache_hit_frac, "fraction");
  report.add("serve.coalesced", static_cast<double>(serve.coalesced), "count");
  report.add("serve.rejected", static_cast<double>(serve.rejected), "count");

  report.add("trace.coverage",
             decomposed_wall > 0.0 ? l.sum() / decomposed_wall : 0.0,
             "fraction");
  report.add("trace.overhead",
             untraced_single > 0.0 ? decomposed_wall / untraced_single - 1.0
                                   : 0.0,
             "fraction");

  report.add("obs.span.simulate_s", spans.simulate / n, "s");
  report.add("obs.span.digitize_s", spans.digitize / n, "s");
  report.add("obs.span.spill_replay_s", spans.spill_replay / n, "s");
  report.add("obs.span.analyze_s", spans.analyze / n, "s");
}

}  // namespace perfbench
