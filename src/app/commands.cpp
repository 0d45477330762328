#include "app/commands.h"

#include <filesystem>
#include <fstream>

#include "app/request.h"
#include "app/version.h"
#include "circuits/cello_circuits.h"
#include "circuits/circuit_repository.h"
#include "logic/quine_mccluskey.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "props/check.h"
#include "sbml/validate.h"
#include "sbml/writer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sbol/converter.h"
#include "sbol/sbol_io.h"
#include "timing/delay_estimator.h"
#include "timing/threshold_estimator.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/errors.h"
#include "util/log.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::app {

namespace {

constexpr const char* kUsage =
    "usage: glva <command> [options]\n"
    "\n"
    "commands:\n"
    "  list                         catalog circuits and their metadata\n"
    "  show <circuit>               structure, intended logic, model stats\n"
    "  export <circuit>             write SBML (--sbml) and/or SBOL (--sbol)\n"
    "  analyze <model.sbml>         extract logic from a model file\n"
    "  verify <circuit>             run the paper's experiment on a catalog circuit\n"
    "  ensemble <circuit>           N-replicate ensemble: majority logic + FOV stats\n"
    "  sweep <circuit>              threshold-robustness sweep (Figure 5 methodology)\n"
    "  check <circuit>              monitor temporal properties over the sweep\n"
    "                               (bounded-LTL; see docs/PROPERTIES.md)\n"
    "  estimate <circuit>           estimate threshold and propagation delay\n"
    "  serve                        long-lived analysis daemon (see docs/SERVE.md)\n"
    "  stats                        fetch a running daemon's metrics snapshot\n"
    "  version                      build, SIMD tier, and dispatch information\n"
    "\n"
    "global options:\n"
    "  --jobs N                     worker threads for parallel workloads\n"
    "                               (0 = one per hardware thread; default 1;\n"
    "                               results are identical for every N)\n"
    "  --trace-out FILE             write a Chrome trace-event JSON of the\n"
    "                               run's stages to FILE (open in\n"
    "                               chrome://tracing or Perfetto)\n"
    "  --metrics-out FILE           write the run's metrics snapshot\n"
    "                               (counters, gauges, histograms) as JSON\n"
    "                               to FILE when the command returns\n"
    "  --log-level LEVEL            stderr diagnostics: error | warn | info\n"
    "                               | debug (default info; env GLVA_LOG)\n"
    "\n"
    "run `glva <command> --help` for per-command options\n";

/// Write one CSV document to `path`; throws glva::Error when the file
/// cannot be opened.
void write_csv_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open CSV output file: " + path);
  f << content;
}

/// The --csv protocol of the commands that stream rows per replicate
/// (`ensemble`, `check`). Rows go to `<path>.partial`, opened before the
/// run so a bad path fails without paying for the simulation, and
/// commit() renames it onto `path` after a fully successful run. An
/// uncommitted file is removed on destruction, so a failed run can never
/// truncate, corrupt or delete an earlier result at `path`, and leaves
/// no `.partial` behind. An empty path streams nothing.
class StreamedCsv {
public:
  StreamedCsv(std::string path, const std::string& header)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    stream_.open(temp_path(), std::ios::binary);
    if (!stream_) throw Error("cannot open CSV output file: " + path_);
    stream_ << header;
  }
  ~StreamedCsv() {
    if (!stream_.is_open()) return;
    stream_.close();
    std::error_code ec;
    std::filesystem::remove(temp_path(), ec);
  }
  StreamedCsv(const StreamedCsv&) = delete;
  StreamedCsv& operator=(const StreamedCsv&) = delete;

  std::ostream& rows() { return stream_; }

  /// Fail fast: a bad stream (disk full, pulled mount) aborts the run at
  /// the replicate that hit it instead of simulating the rest.
  void check_rows() const {
    if (!stream_) throw Error("failed writing CSV output file: " + path_);
  }

  /// Seal the temp file, then move it onto the target in one step: the
  /// target is either the previous complete file or the new one.
  void commit() {
    stream_.close();
    std::error_code ec;
    if (stream_) std::filesystem::rename(temp_path(), path_, ec);
    if (!stream_ || ec) {
      std::filesystem::remove(temp_path(), ec);
      throw Error("failed writing CSV output file: " + path_);
    }
  }

private:
  std::string temp_path() const { return path_ + ".partial"; }

  std::string path_;
  std::ofstream stream_;
};

int cmd_list(const std::vector<std::string>& args, std::ostream& out) {
  util::CliParser cli;
  cli.add_flag("two-stage", "report the transcription+translation variant");
  std::vector<const char*> argv{"glva-list"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva list");
    return 0;
  }
  util::TextTable table({"circuit", "source", "inputs", "gates", "parts",
                         "intended logic"});
  table.set_align(2, util::TextTable::Align::kRight);
  table.set_align(3, util::TextTable::Align::kRight);
  table.set_align(4, util::TextTable::Align::kRight);
  for (const auto& spec :
       circuits::CircuitRepository::build_all(cli.get_flag("two-stage"))) {
    table.add_row(
        {spec.name, circuits::CircuitRepository::is_myers(spec.name)
                        ? "Myers 2009"
                        : "Cello-style",
         std::to_string(spec.input_ids.size()), std::to_string(spec.gate_count),
         std::to_string(spec.parts.total()),
         logic::minimize(spec.expected, spec.input_ids).to_string()});
  }
  out << table.str();
  return 0;
}

int cmd_show(const std::string& name, std::ostream& out) {
  const auto spec = circuits::CircuitRepository::build(name);
  out << "circuit:     " << spec.name << "\n"
      << "description: " << spec.description << "\n"
      << "source:      " << spec.source << "\n"
      << "inputs:      " << util::join(spec.input_ids, ", ")
      << " (MSB first); output: " << spec.output_id << "\n"
      << "gates:       " << spec.gate_count << ", parts: promoters "
      << spec.parts.promoters << ", rbs " << spec.parts.rbs << ", cds "
      << spec.parts.cds << ", terminators " << spec.parts.terminators << "\n"
      << "model:       " << spec.model.species.size() << " species, "
      << spec.model.reactions.size() << " reactions, "
      << spec.model.parameters.size() << " parameters\n\n"
      << "intended logic: " << spec.output_id << " = "
      << logic::minimize(spec.expected, spec.input_ids).to_string() << "\n\n"
      << spec.expected.to_string(spec.input_ids, spec.output_id);
  return 0;
}

int cmd_export(const std::string& name, const std::vector<std::string>& args,
               std::ostream& out) {
  util::CliParser cli;
  cli.add_option("sbml", "", "output path for the behavioural SBML model");
  cli.add_option("sbol", "", "output path for the structural SBOL-lite design");
  cli.add_flag("two-stage", "expand gates to transcription+translation");
  std::vector<const char*> argv{"glva-export"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva export <circuit>");
    return 0;
  }
  const bool two_stage = cli.get_flag("two-stage");
  const auto spec = circuits::CircuitRepository::build(name, two_stage);
  bool wrote = false;
  if (const std::string path = cli.get("sbml"); !path.empty()) {
    sbml::write_sbml_file(spec.model, path);
    out << "SBML written to " << path << "\n";
    wrote = true;
  }
  if (const std::string path = cli.get("sbol"); !path.empty()) {
    if (circuits::CircuitRepository::is_myers(name)) {
      throw InvalidArgument(
          "Myers book circuits are behavioural models without a gate-level "
          "structure; --sbol applies to the Cello-style circuits");
    }
    const auto design = sbol::design_from_netlist(
        circuits::cello_netlist(name), "design_" + spec.model.id);
    sbol::write_design_file(design, path);
    out << "SBOL-lite written to " << path << "\n";
    wrote = true;
  }
  if (!wrote) {
    out << "nothing to do: pass --sbml <path> and/or --sbol <path>\n";
    return 2;
  }
  return 0;
}

// The analysis commands below all parse into an app::Request and run it
// through app::execute — the exact path the `glva serve` daemon uses — so
// daemon responses are byte-identical to CLI output by construction. Only
// CLI-side extras (CSV files and their "written to" messages) live here.

/// `analyze <model.sbml>` and `verify <circuit>`: one extraction, with an
/// optional per-combination analytics CSV.
int cmd_extract(Request::Op op, const char* usage, const std::string& target,
                const std::vector<std::string>& args, std::ostream& out) {
  util::CliParser cli;
  add_request_options(cli, op);
  cli.add_option("csv", "", "write per-combination analytics CSV here");
  std::vector<const char*> argv{"glva"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help(usage);
    return 0;
  }
  const Request request = request_from_cli(op, target, cli);
  ExecutionHooks hooks;
  std::string csv_message;
  const std::string csv_path = cli.get("csv");
  if (!csv_path.empty()) {
    hooks.on_extraction = [&](const core::ExtractionResult& extraction) {
      write_csv_file(csv_path, core::analytics_csv(extraction));
      csv_message = "analytics CSV written to " + csv_path + "\n";
    };
  }
  const Response response = execute(request, {}, hooks);
  out << response.body << csv_message;
  return response.exit_code;
}

int cmd_ensemble(const std::string& name, const std::vector<std::string>& args,
                 std::size_t jobs, std::ostream& out) {
  util::CliParser cli;
  add_request_options(cli, Request::Op::kEnsemble);
  cli.add_option("csv", "", "write per-combination analytics CSV here");
  cli.add_option("csv-dir", "",
                 "write one per-replicate analytics CSV into this directory");
  cli.add_option("ci-csv", "",
                 "write the replicate-level 95% confidence-interval summary "
                 "CSV here (PFoBE, wrong states)");
  std::vector<const char*> argv{"glva-ensemble"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva ensemble <circuit>");
    return 0;
  }
  const Request request = request_from_cli(Request::Op::kEnsemble, name, cli);

  // Per-replicate analytics stream out of the ensemble's ordered commit
  // stream as each replicate finishes — the runner never materializes the
  // fleet, so --csv / --csv-dir stay O(1) per replicate too. --csv carries
  // *all* replicates, distinguished by the leading `replicate` index
  // column (see ensemble_analytics_csv_header).
  const std::string csv_path = cli.get("csv");
  const std::string csv_dir = cli.get("csv-dir");
  const std::string ci_csv_path = cli.get("ci-csv");
  StreamedCsv csv(csv_path, core::ensemble_analytics_csv_header());
  if (!csv_dir.empty()) std::filesystem::create_directories(csv_dir);

  ExecutionHooks hooks;
  if (!csv_path.empty() || !csv_dir.empty()) {
    hooks.on_replicate = [&](std::size_t r,
                             const core::ExperimentResult& result) {
      if (!csv_path.empty()) {
        csv.rows() << core::ensemble_analytics_csv_rows(r, result.extraction);
        csv.check_rows();
      }
      if (!csv_dir.empty()) {
        // --csv-dir splits the same analytics into one file per replicate;
        // each is self-contained, so a failed run leaves them in place.
        std::string index = std::to_string(r);
        index.insert(0, index.size() < 3 ? 3 - index.size() : 0, '0');
        write_csv_file(
            (std::filesystem::path(csv_dir) / ("replicate_" + index + ".csv"))
                .string(),
            core::analytics_csv(result.extraction));
      }
    };
  }
  std::string ci_csv_content;
  std::size_t replicate_count = 0;
  hooks.on_ensemble = [&](const core::EnsembleResult& ensemble) {
    replicate_count = ensemble.replicate_count;
    if (!ci_csv_path.empty()) {
      ci_csv_content = core::ensemble_confidence_csv(ensemble);
    }
  };

  ExecutionContext context;
  context.jobs = jobs;
  const Response response = execute(request, context, hooks);
  out << response.body;
  if (!csv_path.empty()) {
    csv.commit();
    out << "analytics CSV (all replicates) written to " << csv_path << "\n";
  }
  // --ci-csv carries the replicate-level confidence intervals.
  if (!ci_csv_path.empty()) {
    write_csv_file(ci_csv_path, ci_csv_content);
    out << "confidence-interval CSV written to " << ci_csv_path << "\n";
  }
  if (!csv_dir.empty()) {
    out << replicate_count << " replicate CSV(s) written to " << csv_dir
        << "\n";
  }
  return response.exit_code;
}

int cmd_sweep(const std::string& name, const std::vector<std::string>& args,
              std::size_t jobs, std::ostream& out) {
  util::CliParser cli;
  add_request_options(cli, Request::Op::kSweep);
  cli.add_option("csv", "",
                 "write per-point per-combination variation CSV here");
  std::vector<const char*> argv{"glva-sweep"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva sweep <circuit>");
    return 0;
  }
  const Request request = request_from_cli(Request::Op::kSweep, name, cli);

  const std::string csv_path = cli.get("csv");
  util::CsvWriter csv;
  ExecutionHooks hooks;
  if (!csv_path.empty()) {
    csv.row("threshold", "case", "case_count", "high_count",
            "variation_count", "verdict_high");
    hooks.on_point = [&](const core::ThresholdPoint& point) {
      const auto& extraction = point.result.extraction;
      for (const auto& record : extraction.variation.records) {
        csv.row(point.threshold,
                extraction.extracted().combination_label(record.combination),
                static_cast<unsigned long long>(record.case_count),
                static_cast<unsigned long long>(record.high_count),
                static_cast<unsigned long long>(record.variation_count),
                extraction.construction.outcomes[record.combination].verdict ==
                        core::CaseVerdict::kHigh
                    ? "1"
                    : "0");
      }
    };
  }

  ExecutionContext context;
  context.jobs = jobs;
  const Response response = execute(request, context, hooks);
  out << response.body;
  if (!csv_path.empty()) {
    csv.save(csv_path);
    out << "CSV written to " << csv_path << "\n";
  }
  return response.exit_code;
}

int cmd_check(const std::string& name, const std::vector<std::string>& args,
              std::size_t jobs, std::ostream& out) {
  util::CliParser cli;
  add_request_options(cli, Request::Op::kCheck);
  cli.add_option("csv", "",
                 "write the per-replicate per-combination satisfaction CSV "
                 "here (all replicates, streamed)");
  std::vector<const char*> argv{"glva-check"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva check <circuit>");
    return 0;
  }
  const Request request = request_from_cli(Request::Op::kCheck, name, cli);

  // Rows flow out of the ordered commit stream per replicate.
  const std::string csv_path = cli.get("csv");
  StreamedCsv csv(csv_path,
                  "replicate,seed,property,combination,samples,satisfied,"
                  "fraction,first_violation\n");
  ExecutionHooks hooks;
  if (!csv_path.empty()) {
    hooks.on_check_replicate = [&](std::size_t r,
                                   const props::CheckReplicate& replicate) {
      std::ostream& rows = csv.rows();
      for (const props::PropertyCheck& check : replicate.properties) {
        // Canonical property text contains commas (window bounds), so the
        // field is quoted; the grammar has no quote character.
        const auto row = [&](const std::string& combination,
                             std::size_t samples, std::size_t satisfied,
                             double fraction, std::size_t first_violation) {
          rows << r << ',' << replicate.seed << ",\"" << check.property
               << "\"," << combination << ',' << samples << ',' << satisfied
               << ',' << util::format_double(fraction, 6) << ',';
          if (first_violation != props::kNoViolation) rows << first_violation;
          rows << '\n';
        };
        for (const props::CombinationCheck& comb : check.combinations) {
          row(std::to_string(comb.combination), comb.samples, comb.satisfied,
              comb.fraction(), comb.first_violation);
        }
        row("all", check.samples, check.satisfied, check.fraction(),
            check.first_violation);
      }
      csv.check_rows();
    };
  }

  ExecutionContext context;
  context.jobs = jobs;
  const Response response = execute(request, context, hooks);
  out << response.body;
  if (!csv_path.empty()) {
    csv.commit();
    out << "check CSV (all replicates) written to " << csv_path << "\n";
  }
  return response.exit_code;
}

int cmd_estimate(const std::string& name, const std::vector<std::string>& args,
                 std::ostream& out) {
  util::CliParser cli;
  cli.add_option("probe-level", "30", "input level for the probe sweep");
  cli.add_option("total-time", "10000", "probe sweep duration");
  cli.add_option("seed", "1", "simulation seed");
  std::vector<const char*> argv{"glva-estimate"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva estimate <circuit>");
    return 0;
  }
  const auto spec = circuits::CircuitRepository::build(name);
  sim::LabOptions options;
  options.seed = cli.get_uint("seed");
  sim::VirtualLab lab(spec.model, options);
  lab.declare_inputs(spec.input_ids);

  const double probe = cli.get_double("probe-level");
  const double total = cli.get_double("total-time");
  const auto sweep = lab.run_combination_sweep(total, probe);
  const auto& series = sweep.trace.series(spec.output_id);
  const auto threshold_info = timing::estimate_threshold(
      std::span<const double>(series.data(), series.size()));
  const auto delays = timing::estimate_delays(
      sweep.trace, sweep.schedule, spec.output_id, threshold_info.threshold);

  out << "circuit:            " << spec.name << "\n"
      << "threshold estimate: "
      << util::format_double(threshold_info.threshold, 4) << " molecules (off "
      << util::format_double(threshold_info.off_mean, 4) << ", on "
      << util::format_double(threshold_info.on_mean, 4) << ", separation "
      << util::format_double(threshold_info.separation, 3) << ")\n"
      << "rise delay:         "
      << util::format_double(delays.mean_rise_delay, 4) << " tu\n"
      << "fall delay:         "
      << util::format_double(delays.mean_fall_delay, 4) << " tu\n"
      << "recommended hold:   "
      << util::format_double(delays.recommended_hold_time, 4)
      << " tu per combination\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::size_t jobs,
              std::ostream& out, std::ostream& err) {
  util::CliParser cli;
  cli.add_option("listen", "",
                 "TCP listen address as host:port (port 0 = ephemeral; the "
                 "bound port is printed on startup)");
  cli.add_option("unix", "", "Unix-domain socket path to listen on");
  cli.add_option("max-active", "0",
                 "requests executing concurrently (0 = pool thread count)");
  cli.add_option("max-queued", "64",
                 "admitted-but-waiting requests before new ones are "
                 "rejected as overloaded");
  cli.add_option("cache-mb", "64",
                 "result cache budget in MiB (0 disables caching)");
  cli.add_option("stats-interval", "0",
                 "seconds between one-line stats summaries on stderr "
                 "(0 disables)");
  std::vector<const char*> argv{"glva-serve"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva serve");
    return 0;
  }
  serve::ServerOptions options;
  options.listen_addr = cli.get("listen");
  options.unix_path = cli.get("unix");
  options.jobs = jobs;
  const long long max_active = cli.get_int("max-active");
  const long long max_queued = cli.get_int("max-queued");
  const long long cache_mb = cli.get_int("cache-mb");
  const long long stats_interval = cli.get_int("stats-interval");
  if (max_active < 0 || max_queued < 0 || cache_mb < 0 ||
      stats_interval < 0) {
    throw InvalidArgument(
        "serve: --max-active, --max-queued, --cache-mb, and "
        "--stats-interval must be >= 0");
  }
  options.max_active = static_cast<std::size_t>(max_active);
  options.max_queued = static_cast<std::size_t>(max_queued);
  options.cache_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
  options.stats_interval_seconds = static_cast<unsigned>(stats_interval);
  return serve::run_serve(options, out, err);
}

/// `glva stats`: fetch the metrics snapshot from a running daemon via the
/// `stats` op and print it — text by default (the same layout as the
/// daemon's final dump), raw JSON with --json.
int cmd_stats(const std::vector<std::string>& args, std::ostream& out) {
  util::CliParser cli;
  cli.add_option("unix", "", "daemon unix socket path to connect to");
  cli.add_option("connect", "", "daemon TCP endpoint as host:port");
  cli.add_flag("json", "print the raw JSON snapshot");
  std::vector<const char*> argv{"glva-stats"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    out << cli.help("glva stats");
    return 0;
  }
  const std::string unix_path = cli.get("unix");
  const std::string endpoint = cli.get("connect");
  if (unix_path.empty() == endpoint.empty()) {
    throw InvalidArgument(
        "stats: pass exactly one of --unix <path> or --connect <host:port>");
  }
  serve::Client client = [&] {
    if (!unix_path.empty()) return serve::Client::connect_unix(unix_path);
    const auto pos = endpoint.rfind(':');
    if (pos == std::string::npos || pos + 1 == endpoint.size()) {
      throw InvalidArgument("stats: --connect expects host:port, got '" +
                            endpoint + "'");
    }
    return serve::Client::connect_tcp(endpoint.substr(0, pos),
                                      endpoint.substr(pos + 1));
  }();

  const serve::Json request =
      serve::Json::object_of({{"op", serve::Json::of("stats")},
                              {"id", serve::Json::number_token("1")}});
  const serve::Json response = client.round_trip(request.dump());
  const serve::Json* ok = response.find("ok");
  if (ok == nullptr || ok->kind != serve::Json::Kind::kBool || !ok->boolean) {
    throw Error("stats: daemon returned an error: " + response.dump());
  }
  const serve::Json* result = response.find("result");
  if (result == nullptr || !result->is_object()) {
    throw Error("stats: malformed response (no 'result' object)");
  }
  if (cli.get_flag("json")) {
    out << result->dump() << "\n";
    return 0;
  }

  if (const serve::Json* enabled = result->find("metrics_enabled");
      enabled != nullptr && enabled->kind == serve::Json::Kind::kBool &&
      !enabled->boolean) {
    out << "(metrics compiled out: GLVA_NO_METRICS daemon build)\n";
    return 0;
  }
  // Text layout mirrors obs::render_text so a wire snapshot and the
  // daemon's final stderr dump read identically.
  if (const serve::Json* counters = result->find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->object) {
      out << "counter   " << name << " " << value.number << "\n";
    }
  }
  if (const serve::Json* gauges = result->find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->object) {
      out << "gauge     " << name << " " << value.number << "\n";
    }
  }
  if (const serve::Json* histograms = result->find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, value] : histograms->object) {
      out << "histogram " << name;
      for (const char* field : {"count", "sum", "p50", "p95", "p99"}) {
        if (const serve::Json* member = value.find(field);
            member != nullptr) {
          out << " " << field << "=" << member->number;
        }
      }
      out << "\n";
    }
  }
  return 0;
}

int cmd_version(std::ostream& out) {
  out << version_report();
  return 0;
}

/// Strip every global `FLAG V` / `FLAG=V` out of `args`, returning the
/// values in order. Throws glva::InvalidArgument when FLAG is the last
/// argument.
std::vector<std::string> take_flag(std::vector<std::string>& args,
                                   const std::string& flag) {
  const std::string prefix = flag + "=";
  std::vector<std::string> values;
  for (std::size_t i = 0; i < args.size();) {
    const auto at = args.begin() + static_cast<std::ptrdiff_t>(i);
    if (args[i] == flag) {
      if (i + 1 >= args.size()) throw InvalidArgument(flag + ": missing value");
      values.push_back(args[i + 1]);
      args.erase(at, at + 2);
    } else if (util::starts_with(args[i], prefix)) {
      values.push_back(args[i].substr(prefix.size()));
      args.erase(at);
    } else {
      ++i;
    }
  }
  return values;
}

/// The last value of a global output-file flag (`--trace-out`,
/// `--metrics-out`), or "" when absent. Throws on an empty value.
std::string take_path_flag(std::vector<std::string>& args,
                           const std::string& flag) {
  std::string path;
  for (std::string& value : take_flag(args, flag)) {
    if (value.empty()) throw InvalidArgument(flag + ": missing value");
    path = std::move(value);
  }
  return path;
}

/// The command router proper: global flags already stripped and applied.
int dispatch_command(const std::vector<std::string>& stripped,
                     std::size_t jobs, std::ostream& out, std::ostream& err) {
  if (stripped.empty() || stripped[0] == "--help" || stripped[0] == "-h" ||
      stripped[0] == "help") {
    out << kUsage;
    return stripped.empty() ? 2 : 0;
  }
  const std::string& command = stripped[0];
  const std::vector<std::string> rest(stripped.begin() + 1, stripped.end());

  if (command == "list") return cmd_list(rest, out);
  if (command == "version") return cmd_version(out);
  if (command == "serve") return cmd_serve(rest, jobs, out, err);
  if (command == "stats") return cmd_stats(rest, out);
  if (command == "show" || command == "export" || command == "analyze" ||
      command == "verify" || command == "ensemble" || command == "sweep" ||
      command == "check" || command == "estimate") {
    if (rest.empty() || util::starts_with(rest[0], "--")) {
      err << "glva " << command << ": missing argument\n" << kUsage;
      return 2;
    }
    const std::string target = rest[0];
    const std::vector<std::string> options(rest.begin() + 1, rest.end());
    if (command == "show") return cmd_show(target, out);
    if (command == "export") return cmd_export(target, options, out);
    if (command == "analyze") {
      return cmd_extract(Request::Op::kAnalyze, "glva analyze <model.sbml>",
                         target, options, out);
    }
    if (command == "verify") {
      return cmd_extract(Request::Op::kVerify, "glva verify <circuit>",
                         target, options, out);
    }
    if (command == "ensemble") return cmd_ensemble(target, options, jobs, out);
    if (command == "sweep") return cmd_sweep(target, options, jobs, out);
    if (command == "check") return cmd_check(target, options, jobs, out);
    return cmd_estimate(target, options, out);
  }
  err << "glva: unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  // Route util::log through this invocation's error stream so embedded
  // callers (tests, the daemon) capture diagnostics alongside their own
  // stderr writes.
  struct LogSinkGuard {
    explicit LogSinkGuard(std::ostream& sink) { util::set_log_sink(&sink); }
    ~LogSinkGuard() { util::set_log_sink(nullptr); }
  } log_sink_guard(err);
  try {
    // Global flags, stripped in this order; the last value of each wins.
    std::vector<std::string> stripped = args;
    std::size_t jobs = 1;  // 0 = one per hardware thread
    for (const std::string& value : take_flag(stripped, "--jobs")) {
      const auto parsed = util::parse_int(value);
      if (!parsed || *parsed < 0) {
        throw InvalidArgument(
            "--jobs: expected a non-negative integer, got '" + value + "'");
      }
      jobs = static_cast<std::size_t>(*parsed);
    }
    for (const std::string& level : take_flag(stripped, "--log-level")) {
      if (!util::set_log_level(level)) {
        throw InvalidArgument("--log-level: expected error, warn, info, or "
                              "debug, got '" + level + "'");
      }
    }
    const std::string trace_path = take_path_flag(stripped, "--trace-out");
    const std::string metrics_path = take_path_flag(stripped, "--metrics-out");

    // --trace-out wraps the whole command in a trace window; the file is
    // written even when the command fails nonzero (the spans up to the
    // failure are exactly what one wants to see), but not when it throws.
    // --metrics-out follows the same rule.
    if (!trace_path.empty()) obs::trace_begin();
    int code = 0;
    try {
      code = dispatch_command(stripped, jobs, out, err);
    } catch (...) {
      if (!trace_path.empty()) {
        obs::trace_end();
        static_cast<void>(obs::drain_trace());
      }
      throw;
    }
    if (!trace_path.empty()) {
      obs::trace_end();
      obs::write_chrome_trace(trace_path, obs::drain_trace());
      util::log_info("trace written to " + trace_path);
    }
    if (!metrics_path.empty()) {
      std::ofstream metrics(metrics_path, std::ios::binary);
      metrics << obs::render_json(obs::snapshot()) << "\n";
      if (!metrics) throw Error("cannot write metrics file: " + metrics_path);
      util::log_info("metrics written to " + metrics_path);
    }
    return code;
  } catch (const Error& e) {
    err << "glva: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "glva: " << e.what() << "\n";
    return 2;
  }
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run_cli(args, out, err);
}

}  // namespace glva::app
