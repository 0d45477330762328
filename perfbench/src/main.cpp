// perfbench: runs one named workload through GLVA's public entry points and
// prints, as its last stdout line, one JSON object with the run's metrics
// (end-to-end with --trace 0, per-layer with --trace 1). Normally driven by
// run.py, which builds this binary first; see README.md.
//
//   perfbench --workload paper_ensemble --seed 7 --seconds 10 --trace 0
//             --scratch .bench_build/run-1
//
// Exit status: 0 when every op produced a correct result, 1 when some did
// not (the JSON line is still printed), 2 on a usage or set-up error (no
// JSON line).

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "app/version.h"
#include "bench.h"
#include "util/cli.h"

namespace {

namespace fs = std::filesystem;

/// Owns the per-run scratch directory: created new, removed at exit.
class ScratchDir {
public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    if (fs::exists(path_)) {
      throw std::runtime_error("scratch directory " + path_ + " already exists");
    }
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

private:
  std::string path_;
};

int run(int argc, char** argv) {
  glva::util::CliParser cli;
  cli.add_option("workload", "",
                 "paper_ensemble | deep_verify | spill_check | serve_mix");
  cli.add_option("seed", "1", "workload seed; every op seed derives from it");
  cli.add_option("seconds", "10", "how long the measurement runs");
  cli.add_option("trace", "0",
                 "0: end-to-end metrics; 1: traced run, per-layer metrics");
  cli.add_option("scratch", "",
                 "per-run scratch directory (created, then removed)");
  cli.add_flag("toy", "self-test size: every workload shrunk");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help("perfbench");
    return 0;
  }

  perfbench::Args args;
  args.workload = cli.get("workload");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  args.seconds = cli.get_double("seconds");
  args.trace = cli.get_int("trace") != 0;
  args.toy = cli.get_flag("toy");
  args.scratch = cli.get("scratch");
  if (!perfbench::is_app_workload(args.workload) &&
      args.workload != "serve_mix") {
    std::cerr << "perfbench: unknown --workload '" << args.workload << "'\n";
    return 2;
  }
  if (args.scratch.empty() || !(args.seconds > 0.0)) {
    std::cerr << "perfbench: --scratch and a positive --seconds are required\n";
    return 2;
  }

  std::cerr << glva::app::version_report()
            << "nproc:       " << std::thread::hardware_concurrency() << "\n";
  const ScratchDir scratch(args.scratch);
  const perfbench::Report report = args.workload == "serve_mix"
                                       ? perfbench::run_serve_mix(args)
                                       : perfbench::run_app_workload(args);
  std::cout << report.json() << std::endl;
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
