// The CLI-equivalent workloads — paper_ensemble, deep_verify, spill_check —
// each a fixed op list issued through app::execute, the path `glva` and the
// daemon share.

#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "circuits/circuit_repository.h"
#include "sim/virtual_lab.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace glva;
using Kind = app::Request::Op;

namespace {

struct AppWorkload {
  const char* name;
  std::size_t jobs;  ///< worker count its fleet ops fan out over
  /// CPUs one op keeps busy: the width of its CpuSlots.
  std::size_t cpus;
  /// Cycles of the op list the traced run decomposes (a fixed subset, so
  /// counts repeat exactly at a fixed seed).
  std::size_t traced_cycles;
  std::vector<std::string> circuits;
};

/// Worker counts stay below nproc (4 on the reference machine): fleet
/// timings at jobs = nproc swing with whatever else the machine runs.
/// paper_ensemble carries the exec scaling. spill_check runs its
/// replicates on one worker, whose spill writer thread takes the slot's
/// second CPU: with two workers its op time was set by whichever of four
/// busy threads landed on the slowest CPU, and varied twice as much.
const std::vector<AppWorkload>& app_workloads() {
  static const std::vector<AppWorkload> table = {
      {"paper_ensemble", 2, 2, 1, {"0x1C", "0x0B", "0x17"}},
      {"deep_verify", 1, 1, 3, {"0x0B"}},
      {"spill_check", 1, 2, 3, {"0x0B"}},
  };
  return table;
}

const AppWorkload& find_workload(const std::string& name) {
  for (const AppWorkload& w : app_workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The ops of cycle `cycle`: the workload's fixed op list with fresh
/// seeds derived from the run seed.
std::vector<Op> cycle_ops(const Args& args, const AppWorkload& w,
                          std::size_t cycle) {
  const auto seed = [&](std::size_t i) {
    return std::to_string(op_seed(args.seed, cycle * 16 + i));
  };
  std::vector<Op> ops;
  const std::string name = w.name;
  if (name == "paper_ensemble") {
    // Paper scale: 10^4 samples per replicate, default acquisition.
    const std::string replicates = args.toy ? "4" : "64";
    for (std::size_t i = 0; i < w.circuits.size(); ++i) {
      ops.push_back(make_op(Kind::kEnsemble, w.circuits[i],
                            {"--replicates", replicates, "--total-time",
                             "10000", "--sampling-period", "1", "--seed",
                             seed(i)},
                            w.jobs));
    }
  } else if (name == "deep_verify") {
    // 10^7 samples (10^5 at self-test size), default acquisition.
    ops.push_back(make_op(Kind::kVerify, "0x0B",
                          {"--sampling-period", args.toy ? "0.1" : "0.001",
                           "--seed", seed(0)},
                          w.jobs));
  } else {
    // Every replicate archived as a .glvt and replayed through the
    // streaming digitizer. The acquisition is spelled here and only here.
    const std::string dir =
        args.scratch + "/spill-" + std::to_string(cycle);
    Op op = make_op(Kind::kCheck, "0x0B",
                    {"--property", kCheckProperties, "--replicates",
                     args.toy ? "2" : "8", "--sampling-period",
                     args.toy ? "0.1" : "0.01", "--sink", "spill",
                     "--spill-dir", dir, "--seed", seed(0)},
                    w.jobs);
    op.spills = true;
    op.spill_dir = dir;
    ops.push_back(std::move(op));
  }
  return ops;
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

/// The "across replicates: fraction X" values of a check report, in
/// property order.
std::vector<double> replicate_fractions(const std::string& body) {
  std::vector<double> fractions;
  const std::string marker = "across replicates: fraction ";
  for (std::size_t at = body.find(marker); at != std::string::npos;
       at = body.find(marker, at + 1)) {
    fractions.push_back(std::stod(body.substr(at + marker.size())));
  }
  return fractions;
}

/// "" when the response is what the op must produce, else why not.
std::string check_response(const Op& op, const app::Response& response) {
  const std::string& body = response.body;
  switch (op.kind) {
    case Kind::kEnsemble:
      if (response.exit_code != 0 || !contains(body, "majority verify: MATCH")) {
        return "majority vote did not recover the intended function";
      }
      return "";
    case Kind::kVerify: {
      // One replicate mis-extracts for about one seed in 3000, at every
      // sampling period alike, so the 10^7-sample verdict must MATCH
      // exactly when the paper-scale run of the same seed does.
      const Op paper = make_op(
          Kind::kVerify, op.target,
          {"--seed", std::to_string(op.request.config.seed)}, 1);
      const bool recovers = app::execute(paper.request).exit_code == 0;
      const bool matched =
          response.exit_code == 0 && contains(body, "verify:     MATCH");
      if (recovers && !matched) return "did not recover the intended function";
      if (!recovers && response.exit_code != 1) return "unexpected exit code";
      return "";
    }
    case Kind::kCheck: {
      const std::uint64_t per_replicate = op.samples / op.request.replicates;
      if (!contains(body, "samples:    " + std::to_string(per_replicate) +
                              " per replicate")) {
        return "report does not cover " + std::to_string(per_replicate) +
               " samples per replicate";
      }
      // C*(A'+B) keeps GFP off while A is high and B low, so the second
      // property is violated: the verdict must be FAIL, with the first
      // property mostly and the second mostly not satisfied.
      const std::vector<double> fractions = replicate_fractions(body);
      if (response.exit_code != 1 || !contains(body, "verdict:    FAIL") ||
          fractions.size() != 2 || fractions[0] < 0.5 || fractions[1] >= 0.5) {
        return "unexpected property verdicts";
      }
      std::size_t files = 0;
      for (const auto& entry : fs::directory_iterator(op.spill_dir)) {
        files += entry.path().extension() == ".glvt" ? 1 : 0;
      }
      if (files != op.request.replicates) {
        return "expected one .glvt per replicate, found " +
               std::to_string(files);
      }
      return "";
    }
    default:
      return "unexpected op kind";
  }
}

/// Catalog load and first network compile of every circuit the workload
/// uses, plus its scratch directory.
double measure_setup(const Args& args, const AppWorkload& w) {
  std::vector<circuits::CircuitSpec> specs;
  return measure_setup_seconds(
      CpuSlots(1),
      [&] {
        for (const std::string& name : w.circuits) {
          circuits::CircuitSpec spec = circuits::CircuitRepository::build(name);
          sim::VirtualLab lab(spec.model);
          lab.declare_inputs(spec.input_ids);
          static_cast<void>(lab.network());
          specs.push_back(std::move(spec));
        }
        fs::create_directories(args.scratch + "/ops");
      },
      [&] { specs.clear(); });
}

app::Response execute(const Op& op) {
  app::ExecutionContext context;
  context.jobs = op.jobs;
  return app::execute(op.request, context);
}

constexpr double kWarmupSeconds = 1.0;
/// Warm-up ops draw their seeds from cycle numbers no measured op uses.
constexpr std::size_t kWarmupCycles = std::size_t{1} << 24;

/// Untimed ops for kWarmupSeconds, rotated over `slots`: a fresh process
/// runs its first ops up to twice as slow (clock ramp-up, first-touch page
/// faults, new malloc arenas).
void warm_up(const Args& args, const AppWorkload& w, const CpuSlots& slots) {
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < kWarmupSeconds; ++i) {
    slots.pin(i % slots.count());
    for (const Op& op : cycle_ops(args, w, kWarmupCycles + i)) {
      static_cast<void>(execute(op));
      if (op.spills) fs::remove_all(op.spill_dir);
    }
  }
  slots.unpin();
}

/// Whole rounds until --seconds pass; a round runs the op list once on
/// every CPU slot, each time with fresh seeds.
Report measure(const Args& args, const AppWorkload& w) {
  Report report;
  const double setup_s = measure_setup(args, w);
  const CpuSlots slots(w.cpus);
  warm_up(args, w, slots);

  std::vector<std::vector<double>> op_ms(slots.count());
  std::size_t completed = 0;
  std::uint64_t samples = 0;
  double bookkeeping = 0.0;  // output checks and spill cleanup
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round == 0 || seconds_since(start) - bookkeeping < args.seconds;
       ++round) {
    for (std::size_t k = 0; k < slots.count(); ++k) {
      slots.pin(k);
      for (const Op& op : cycle_ops(args, w, round * slots.count() + k)) {
        ++report.attempted;
        const std::string label = std::string(app::op_name(op.kind)) + " " +
                                  op.target + " (seed " +
                                  std::to_string(op.request.config.seed) + ")";
        try {
          const auto op_start = Clock::now();
          const app::Response response = execute(op);
          op_ms[k].push_back(seconds_since(op_start) * 1e3);
          ++completed;
          const auto check_start = Clock::now();
          if (const std::string why = check_response(op, response);
              !why.empty()) {
            report.fail(label + ": " + why);
          } else {
            samples += op.samples;
          }
          bookkeeping += seconds_since(check_start);
        } catch (const std::exception& e) {
          report.fail(label + ": " + e.what());
        }
        if (op.spills) {
          const auto cleanup_start = Clock::now();
          std::error_code ignored;
          fs::remove_all(op.spill_dir, ignored);
          bookkeeping += seconds_since(cleanup_start);
        }
      }
    }
  }
  slots.unpin();
  const double wall = seconds_since(start) - bookkeeping;

  std::cerr << "perfbench: " << w.name << ": " << report.attempted
            << " ops in " << wall << " s over " << slots.count()
            << " CPU slot(s); per-slot op ms p50:";
  for (const std::vector<double>& slot : op_ms) {
    std::cerr << " " << percentile(slot, 0.5);
  }
  std::cerr << "\n";
  report.add("setup_s", setup_s, "s");
  report.add("samples_per_s", static_cast<double>(samples) / wall, "samples/s");
  report.add("requests_per_s", static_cast<double>(completed) / wall, "req/s");
  report.add("op_ms_p50", slot_percentile(op_ms, 0.5), "ms");
  report.add("op_ms_p90", slot_percentile(op_ms, 0.9), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return report;
}

/// The first traced_cycles cycles of the op list, each op traced (see
/// trace_op).
Report trace(const Args& args, const AppWorkload& w) {
  Report report;
  warm_up(args, w, CpuSlots(w.cpus));
  TraceTotals totals;
  totals.workers = w.jobs;
  for (std::size_t cycle = 0; cycle < w.traced_cycles; ++cycle) {
    for (const Op& op : cycle_ops(args, w, cycle)) {
      static_cast<void>(
          trace_op(op, w.jobs, args.scratch + "/traced", totals, report));
    }
  }
  totals.emit(report);
  return report;
}

}  // namespace

bool is_app_workload(const std::string& name) {
  for (const AppWorkload& w : app_workloads()) {
    if (name == w.name) return true;
  }
  return false;
}

Report run_app_workload(const Args& args) {
  const AppWorkload& w = find_workload(args.workload);
  return args.trace ? trace(args, w) : measure(args, w);
}

}  // namespace perfbench
