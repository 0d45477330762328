#include "app/request.h"

#include <cstdio>
#include <utility>

#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "core/report.h"
#include "logic/truth_table.h"
#include "props/parser.h"
#include "sbml/reader.h"
#include "util/errors.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::app {

namespace {

/// Shared analysis options (the vocabulary every analysis op accepts).
void add_analysis_options(util::CliParser& cli) {
  cli.add_option("threshold", "15", "ThVAL (molecules); inputs applied at it");
  cli.add_option("fov-ud", "0.25", "acceptable fraction of output variation");
  cli.add_option("total-time", "10000", "sweep duration (time units)");
  cli.add_option("sampling-period", "1",
                 "trace grid (time units per sample; samples = total-time / "
                 "sampling-period)");
  cli.add_option("seed", "1", "simulation seed");
  cli.add_option("method", "direct", "SSA: direct | next-reaction | tau-leap");
  cli.add_option("sink", "mem",
                 "what --spill-dir archives per replicate: mem (nothing) | "
                 "spill (analog rows) | digitize (bit-planes); results are "
                 "identical, see docs/STORAGE.md");
  cli.add_option("spill-dir", "",
                 "directory for one .glvt archive per replicate (required "
                 "for --sink spill)");
  cli.add_flag("no-timings",
               "omit wall-clock lines from the report (byte-stable output "
               "for goldens, caching, and CLI/daemon identity)");
}

core::ExperimentConfig config_from(const util::CliParser& cli) {
  core::ExperimentConfig config;
  config.threshold = cli.get_double("threshold");
  config.fov_ud = cli.get_double("fov-ud");
  config.total_time = cli.get_double("total-time");
  config.sampling_period = cli.get_double("sampling-period");
  config.seed = cli.get_uint("seed");
  config.method = sim::parse_ssa_method(cli.get("method"));
  config.sink = store::parse_sink_kind(cli.get("sink"));
  config.spill_dir = cli.get("spill-dir");
  return config;
}

/// Exact, canonical rendering of a double for content addressing: the
/// shortest decimal would also round-trip, but hex-float is trivially
/// canonical (no locale, no precision knob) and bit-exact.
std::string canonical_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void append_field(std::string& key, const char* name,
                  const std::string& value) {
  key += name;
  key += '=';
  key += value;
  key += '\x1f';  // unit separator: cannot appear in any field value above
}

circuits::CircuitSpec spec_for(const Request& request) {
  if (request.op != Request::Op::kAnalyze) {
    return circuits::CircuitRepository::build(request.target,
                                              request.two_stage);
  }
  circuits::CircuitSpec spec;
  spec.name = request.target;
  spec.model = sbml::read_sbml_file(request.target);
  spec.input_ids = request.input_ids;
  spec.output_id = request.output_id;
  spec.expected = logic::TruthTable(request.input_ids.size());
  return spec;
}

Response execute_analyze(const Request& request, const circuits::CircuitSpec& spec,
                         const ExecutionHooks& hooks) {
  const auto result = core::run_experiment(spec, request.config);
  if (hooks.on_extraction) hooks.on_extraction(result.extraction);

  Response response;
  response.body = core::render_analytics_table(result.extraction) + "\n" +
                  "expression: " + spec.output_id + " = " +
                  result.extraction.expression() + "\n" +
                  "fitness:    " +
                  util::format_double(result.extraction.fitness(), 6) + " %\n";
  if (!request.expected_hex.empty()) {
    const auto bits = std::stoull(request.expected_hex, nullptr, 16);
    const auto expected =
        logic::TruthTable::from_bits(request.input_ids.size(), bits);
    const auto report = core::verify(result.extraction, expected);
    response.body += "verify:     " + core::summarize(report, expected) + "\n";
    response.exit_code = report.matches ? 0 : 1;
  }
  return response;
}

Response execute_verify(const Request& request,
                        const circuits::CircuitSpec& spec,
                        const ExecutionHooks& hooks) {
  const auto result = core::run_experiment(spec, request.config);
  if (hooks.on_extraction) hooks.on_extraction(result.extraction);

  Response response;
  response.body =
      core::render_analytics_table(result.extraction) + "\n" +
      core::render_experiment_summary(result, spec.expected,
                                      /*timings=*/!request.no_timings);
  response.exit_code = result.verification.matches ? 0 : 1;
  return response;
}

Response execute_ensemble(const Request& request,
                          const circuits::CircuitSpec& spec,
                          const exec::ParallelRunner& runner,
                          const ExecutionHooks& hooks) {
  const core::EnsembleResult ensemble = core::run_ensemble(
      spec, request.config, request.replicates, runner, hooks.on_replicate);
  if (hooks.on_ensemble) hooks.on_ensemble(ensemble);

  Response response;
  response.body = core::render_ensemble_summary(ensemble);
  response.exit_code = ensemble.majority_matches ? 0 : 1;
  return response;
}

Response execute_check(const Request& request,
                       const circuits::CircuitSpec& spec,
                       const exec::ParallelRunner& runner,
                       const ExecutionHooks& hooks) {
  std::vector<props::PropertyPtr> properties;
  properties.reserve(request.properties.size());
  for (const std::string& text : request.properties) {
    properties.push_back(props::parse_property(text));
  }
  const props::CheckResult result =
      props::run_check(spec, request.config, properties, request.replicates,
                       runner, hooks.on_check_replicate);

  Response response;
  response.body = props::render_check_summary(result, request.min_satisfaction);
  response.exit_code = result.satisfied(request.min_satisfaction) ? 0 : 1;
  return response;
}

Response execute_sweep(const Request& request,
                       const circuits::CircuitSpec& spec,
                       const exec::ParallelRunner& runner,
                       const ExecutionHooks& hooks) {
  util::TextTable table(
      {"ThVAL", "expression", "PFoBE %", "total Var_O", "verify"});
  table.set_align(0, util::TextTable::Align::kRight);
  table.set_align(2, util::TextTable::Align::kRight);
  table.set_align(3, util::TextTable::Align::kRight);

  // Points fold into formatted rows as their ordered commits arrive and
  // are then released — the streaming threshold_sweep contract; a dense
  // grid costs one in-flight window of results, not the whole sweep.
  std::size_t matched = 0;
  const core::ThresholdPointObserver fold =
      [&](std::size_t, core::ThresholdPoint&& point) {
        const auto& extraction = point.result.extraction;
        std::size_t total_variation = 0;
        for (const auto& record : extraction.variation.records) {
          total_variation += record.variation_count;
        }
        matched += point.result.verification.matches ? 1 : 0;
        table.add_row(
            {util::format_double(point.threshold, 4),
             spec.output_id + " = " + extraction.expression(),
             util::format_double(extraction.fitness(), 5),
             std::to_string(total_variation),
             core::summarize(point.result.verification, spec.expected)});
        if (hooks.on_point) hooks.on_point(point);
      };
  if (request.redigitize) {
    core::threshold_sweep_redigitize(spec, request.config, request.thresholds,
                                     runner, fold);
  } else {
    core::threshold_sweep(spec, request.config, request.thresholds, runner,
                          fold);
  }

  std::vector<std::string> labels;
  labels.reserve(request.thresholds.size());
  for (const double threshold : request.thresholds) {
    labels.push_back(util::format_double(threshold, 4));
  }

  Response response;
  response.body =
      "circuit:    " + spec.name + "\n" +
      "thresholds: " + util::join(labels, ", ") +
      (request.redigitize
           ? " (re-digitize ablation: one shared simulation)"
           : " (inputs re-applied at each threshold, as in the paper)") +
      "\n\n" + table.str() + "\n" + std::to_string(matched) + "/" +
      std::to_string(request.thresholds.size()) +
      " point(s) recover the intended logic\n";
  response.exit_code = matched == request.thresholds.size() ? 0 : 1;
  return response;
}

}  // namespace

const char* op_name(Request::Op op) noexcept {
  switch (op) {
    case Request::Op::kAnalyze:
      return "analyze";
    case Request::Op::kVerify:
      return "verify";
    case Request::Op::kEnsemble:
      return "ensemble";
    case Request::Op::kSweep:
      return "sweep";
    case Request::Op::kCheck:
      return "check";
  }
  return "unknown";
}

Request::Op parse_op(const std::string& name) {
  if (name == "analyze") return Request::Op::kAnalyze;
  if (name == "verify") return Request::Op::kVerify;
  if (name == "ensemble") return Request::Op::kEnsemble;
  if (name == "sweep") return Request::Op::kSweep;
  if (name == "check") return Request::Op::kCheck;
  throw InvalidArgument(
      "unknown analysis op '" + name +
      "' (expected analyze | verify | ensemble | sweep | check)");
}

void add_request_options(util::CliParser& cli, Request::Op op) {
  if (op == Request::Op::kAnalyze) {
    cli.add_option("inputs", "",
                   "comma-separated input species ids (MSB first)");
    cli.add_option("output", "GFP", "output species id");
    cli.add_option("expected", "",
                   "optional expected function as minterm hex (bit i = "
                   "combination i), e.g. 0x8 for 2-input AND");
  }
  if (op == Request::Op::kEnsemble) {
    cli.add_option("replicates", "8", "independent stochastic replicates");
  }
  if (op == Request::Op::kCheck) {
    cli.add_option("property", "",
                   "semicolon-separated temporal properties over plane "
                   "atoms, e.g. \"G(C->F[0,80]GFP)\" (see "
                   "docs/PROPERTIES.md)");
    cli.add_option("replicates", "1", "independent stochastic replicates");
    cli.add_option("min-satisfaction", "1",
                   "PASS threshold on each property's mean satisfaction "
                   "fraction, in [0, 1]");
  }
  if (op == Request::Op::kSweep) {
    cli.add_option("thresholds", "3,15,40",
                   "comma-separated ThVAL grid; inputs are re-applied at "
                   "each value (the paper's Figure 5 methodology)");
    cli.add_flag("redigitize",
                 "ablation: keep one simulation and only re-digitize the "
                 "output at each threshold");
  }
  add_analysis_options(cli);
  if (op != Request::Op::kAnalyze) {
    cli.add_flag("two-stage", "expand gates to transcription+translation");
  }
}

Request request_from_cli(Request::Op op, std::string target,
                         const util::CliParser& cli) {
  Request request;
  request.op = op;
  request.target = std::move(target);
  request.config = config_from(cli);
  // Refuse an unrunnable config here, before a daemon looks the request up
  // in its cache: a cached body must never answer a request the CLI
  // rejects.
  core::validate(request.config);
  request.no_timings = cli.get_flag("no-timings");
  if (op != Request::Op::kAnalyze) {
    request.two_stage = cli.get_flag("two-stage");
  }
  if (op == Request::Op::kAnalyze) {
    for (const auto& field : util::split(cli.get("inputs"), ',')) {
      const auto trimmed = util::trim(field);
      if (!trimmed.empty()) request.input_ids.emplace_back(trimmed);
    }
    if (request.input_ids.empty()) {
      throw InvalidArgument(
          "analyze: --inputs is required (e.g. --inputs A,B)");
    }
    request.output_id = cli.get("output");
    request.expected_hex = cli.get("expected");
  }
  if (op == Request::Op::kEnsemble) {
    const long long replicates = cli.get_int("replicates");
    if (replicates <= 0) {
      throw InvalidArgument("ensemble: --replicates must be at least 1");
    }
    request.replicates = static_cast<std::size_t>(replicates);
  }
  if (op == Request::Op::kCheck) {
    for (const auto& field : util::split(cli.get("property"), ';')) {
      const auto trimmed = util::trim(field);
      if (trimmed.empty()) continue;
      // Parse now (malformed properties fail before any simulation) and
      // store the canonical spelling, so whitespace/paren variants of one
      // property produce one canonical_key.
      request.properties.push_back(
          props::to_string(*props::parse_property(std::string(trimmed))));
    }
    if (request.properties.empty()) {
      throw InvalidArgument(
          "check: --property is required (e.g. --property "
          "\"G(C->F[0,80]GFP)\"; separate several with ';')");
    }
    const long long replicates = cli.get_int("replicates");
    if (replicates <= 0) {
      throw InvalidArgument("check: --replicates must be at least 1");
    }
    request.replicates = static_cast<std::size_t>(replicates);
    request.min_satisfaction = cli.get_double("min-satisfaction");
    if (!(request.min_satisfaction >= 0.0 && request.min_satisfaction <= 1.0)) {
      throw InvalidArgument("check: --min-satisfaction must be in [0, 1]");
    }
  }
  if (op == Request::Op::kSweep) {
    for (const auto& field : util::split(cli.get("thresholds"), ',')) {
      const auto trimmed = util::trim(field);
      if (trimmed.empty()) continue;
      const auto value = util::parse_double(trimmed);
      if (!value) {
        throw InvalidArgument("sweep: bad threshold value '" +
                              std::string(trimmed) + "'");
      }
      require_finite_positive(*value, "sweep: --thresholds");
      request.thresholds.push_back(*value);
    }
    if (request.thresholds.empty()) {
      throw InvalidArgument(
          "sweep: --thresholds needs at least one value (e.g. 3,15,40)");
    }
    request.redigitize = cli.get_flag("redigitize");
  }
  return request;
}

Request parse_request(Request::Op op, std::string target,
                      const std::vector<std::string>& options) {
  util::CliParser cli;
  add_request_options(cli, op);
  std::vector<const char*> argv{"glva-request"};
  argv.reserve(options.size() + 1);
  for (const auto& option : options) argv.push_back(option.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    // --help over the wire is an error, not a help screen: the daemon has
    // no interactive surface to print one to.
    throw InvalidArgument(std::string(op_name(op)) +
                          ": --help is not a protocol option");
  }
  return request_from_cli(op, std::move(target), cli);
}

std::string canonical_key(const Request& request) {
  std::string key;
  key.reserve(256);
  append_field(key, "op", op_name(request.op));
  append_field(key, "target", request.target);
  append_field(key, "two_stage", request.two_stage ? "1" : "0");
  append_field(key, "replicates", std::to_string(request.replicates));
  std::string grid = std::to_string(request.thresholds.size());
  for (const double threshold : request.thresholds) {
    grid += ',';
    grid += canonical_double(threshold);
  }
  append_field(key, "thresholds", grid);
  append_field(key, "redigitize", request.redigitize ? "1" : "0");
  std::string inputs = std::to_string(request.input_ids.size());
  for (const auto& id : request.input_ids) {
    inputs += ',';
    inputs += id;
  }
  append_field(key, "inputs", inputs);
  append_field(key, "output", request.output_id);
  append_field(key, "expected", request.expected_hex);
  // Record separator between properties: canonical property text is
  // printable ASCII, so '\x1e' cannot occur inside one.
  std::string properties = std::to_string(request.properties.size());
  for (const auto& property : request.properties) {
    properties += '\x1e';
    properties += property;
  }
  append_field(key, "properties", properties);
  append_field(key, "min_satisfaction",
               canonical_double(request.min_satisfaction));
  append_field(key, "no_timings", request.no_timings ? "1" : "0");

  const core::ExperimentConfig& config = request.config;
  append_field(key, "total_time", canonical_double(config.total_time));
  append_field(key, "threshold", canonical_double(config.threshold));
  append_field(key, "fov_ud", canonical_double(config.fov_ud));
  append_field(key, "input_high_level",
               canonical_double(config.input_high_level));
  append_field(key, "sampling_period",
               canonical_double(config.sampling_period));
  append_field(key, "seed", std::to_string(config.seed));
  switch (config.method) {
    case sim::SsaMethod::kDirect:
      append_field(key, "method", "direct");
      break;
    case sim::SsaMethod::kNextReaction:
      append_field(key, "method", "next-reaction");
      break;
    case sim::SsaMethod::kTauLeap:
      append_field(key, "method", "tau-leap");
      break;
  }
  return key;
}

std::uint64_t request_fingerprint(const Request& request) {
  // FNV-1a 64.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : canonical_key(request)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Response execute(const Request& request, const ExecutionContext& context,
                 const ExecutionHooks& hooks) {
  const circuits::CircuitSpec spec = spec_for(request);
  switch (request.op) {
    case Request::Op::kAnalyze:
      return execute_analyze(request, spec, hooks);
    case Request::Op::kVerify:
      return execute_verify(request, spec, hooks);
    case Request::Op::kEnsemble:
    case Request::Op::kSweep:
    case Request::Op::kCheck:
      break;
  }
  // The fleet ops fan out over a runner: the caller's persistent one
  // (daemon) or a per-invocation pool sized by context.jobs (CLI).
  const auto run_fleet = [&](const exec::ParallelRunner& runner) {
    switch (request.op) {
      case Request::Op::kEnsemble:
        return execute_ensemble(request, spec, runner, hooks);
      case Request::Op::kSweep:
        return execute_sweep(request, spec, runner, hooks);
      default:
        return execute_check(request, spec, runner, hooks);
    }
  };
  if (context.runner != nullptr) return run_fleet(*context.runner);
  const exec::ParallelRunner runner(context.jobs);
  return run_fleet(runner);
}

}  // namespace glva::app
