#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/threshold_sweep.h"
#include "exec/parallel_runner.h"
#include "props/check.h"
#include "util/cli.h"

/// The request/response layer the CLI and the `glva serve` daemon share.
///
/// One analysis invocation — analyze / verify / ensemble / sweep / check
/// — is a
/// value (`Request`): which workload, which target, and the full semantic
/// flag set, decoupled from where it came from (a CLI argv or a daemon
/// protocol frame). `execute()` turns a Request into a `Response` whose
/// `body` is exactly what the CLI prints for the same flags, so daemon
/// responses are byte-identical to CLI output by construction — there is
/// no second rendering path to drift.
///
/// Requests are also the cache unit: `canonical_key()` serializes every
/// semantic field in a fixed order with exact (hex-float) numeric
/// formatting, so two requests hash identically iff they ask for the same
/// result — whatever order their flags were typed in and whether defaults
/// were spelled out or omitted. Combined with the seed contract (equal
/// (circuit, config, seed) reproduces every byte), this is what makes the
/// daemon's result cache sound (see serve::ResultCache).
namespace glva::app {

/// One analysis request. Fields beyond `config` apply only to the ops
/// that use them but always carry their defaults, so canonical_key() is
/// total over the struct.
struct Request {
  enum class Op { kAnalyze, kVerify, kEnsemble, kSweep, kCheck };

  Op op = Op::kVerify;
  /// Catalog circuit name (verify/ensemble/sweep/check) or SBML model
  /// path (analyze; resolved relative to the executing process).
  std::string target;
  core::ExperimentConfig config;
  bool two_stage = false;          ///< expand gates (verify/ensemble/sweep/check)
  std::size_t replicates = 8;      ///< ensemble (default 8) / check (default 1)
  std::vector<double> thresholds;  ///< sweep grid (ThVAL values)
  bool redigitize = false;         ///< sweep: re-digitize-only ablation
  /// check: properties in canonical text form (props::to_string of the
  /// parse — spelling variants of one property share one cache key).
  std::vector<std::string> properties;
  double min_satisfaction = 1.0;  ///< check: PASS threshold on the fraction
  std::vector<std::string> input_ids;  ///< analyze: input species (MSB first)
  std::string output_id = "GFP";       ///< analyze: output species
  std::string expected_hex;            ///< analyze: optional minterm hex
  /// Omit wall-clock lines from the body (the verify summary's timing
  /// line). Byte-stability across runs — what the daemon/CLI identity
  /// tests and the result cache want — requires this on ops that would
  /// otherwise print timings.
  bool no_timings = false;
};

[[nodiscard]] const char* op_name(Request::Op op) noexcept;
/// Parse "analyze" / "verify" / "ensemble" / "sweep" / "check"; throws
/// glva::InvalidArgument otherwise.
[[nodiscard]] Request::Op parse_op(const std::string& name);

/// Declare `op`'s semantic options on `cli` — the single flag vocabulary
/// both surfaces parse: per-command CLI parsers add their CLI-only extras
/// (--csv and friends) on top, and the daemon feeds protocol options
/// through the same declarations, so an option accepted over the wire is
/// exactly an option the CLI accepts.
void add_request_options(util::CliParser& cli, Request::Op op);

/// Build the Request from a parser that ran over add_request_options
/// declarations. Throws glva::InvalidArgument on invalid field values
/// (bad method/backend/sink names, replicates < 1, empty sweep grid,
/// missing analyze inputs, a config core::validate refuses).
[[nodiscard]] Request request_from_cli(Request::Op op, std::string target,
                                       const util::CliParser& cli);

/// Convenience: declare, parse, and build in one step from pre-split
/// option strings (the daemon path). Throws on unknown options too.
[[nodiscard]] Request parse_request(Request::Op op, std::string target,
                                    const std::vector<std::string>& options);

/// The canonical content key: every semantic field in a fixed order,
/// doubles in exact hex-float form, lists length-prefixed — equal keys
/// iff equal results. Placement-only fields (spill_dir, spill_stem, sink)
/// are excluded: they choose what is archived where without changing a
/// byte of the response. So is the analysis backend, whose results are
/// bit-identical by contract. Job counts are not part of a Request at all
/// (results are bit-identical for every worker count, per the exec/
/// contract). A request that writes an archive (core::writes_archive) must
/// still execute whatever the cache holds; serve::Server does not answer
/// it from the cache.
[[nodiscard]] std::string canonical_key(const Request& request);

/// FNV-1a 64 of canonical_key — the short content address used in logs
/// and stats displays. The cache itself keys on the full canonical
/// string, so hash collisions can never alias two results.
[[nodiscard]] std::uint64_t request_fingerprint(const Request& request);

/// Everything a request produces: the exit code the CLI would return and
/// the bytes it would print to stdout (CLI-only decorations like
/// "analytics CSV written to ..." excluded — those are side-effect
/// messages, not analysis output).
struct Response {
  int exit_code = 0;
  std::string body;
};

/// Where a request runs: a per-invocation worker budget (CLI) or a
/// borrowed persistent runner whose pool outlives requests (daemon).
struct ExecutionContext {
  std::size_t jobs = 1;  ///< used when `runner` is null; 0 = hw threads
  const exec::ParallelRunner* runner = nullptr;  ///< daemon's runner
};

/// Optional taps for CLI-side extras (CSV files): invoked during
/// execute() with intermediate results the Response does not carry.
/// All default-constructed members are simply not called.
struct ExecutionHooks {
  /// analyze/verify: the single experiment's extraction.
  std::function<void(const core::ExtractionResult&)> on_extraction;
  /// ensemble: forwarded as the core::ReplicateObserver.
  core::ReplicateObserver on_replicate;
  /// ensemble: the reduced ensemble (for --ci-csv).
  std::function<void(const core::EnsembleResult&)> on_ensemble;
  /// sweep: each point from the ordered commit stream, before release.
  std::function<void(const core::ThresholdPoint&)> on_point;
  /// check: forwarded as the props::CheckObserver (per-replicate CSV).
  props::CheckObserver on_check_replicate;
};

/// Run the request and render its body. Exit codes mirror the CLI: 0
/// success, 1 verification failure (wrong extracted logic / majority
/// mismatch). Errors propagate as glva exceptions — the CLI maps them to
/// exit 2, the daemon to a structured error response.
[[nodiscard]] Response execute(const Request& request,
                               const ExecutionContext& context = {},
                               const ExecutionHooks& hooks = {});

}  // namespace glva::app
