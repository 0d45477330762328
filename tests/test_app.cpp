// Tests for the `glva` CLI (driven through run_cli with captured streams).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/commands.h"
#include "circuits/circuit_repository.h"
#include "core/acquire.h"
#include "obs/metrics.h"
#include "sbml/reader.h"
#include "sbol/sbol_io.h"
#include "serve/protocol.h"
#include "store/spill_reader.h"
#include "util/log.h"

namespace {

using glva::app::run_cli;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Temp file that cleans up after itself.
class TempPath {
public:
  explicit TempPath(std::string name) : path_("glva_test_" + std::move(name)) {}
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

private:
  std::string path_;
};

TEST(Cli, NoArgumentsPrintsUsageAndFails) {
  const auto result = run({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.out.find("usage: glva"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(run({"help"}).code, 0);
  EXPECT_EQ(run({"--help"}).code, 0);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ListShowsAllFifteenCircuits) {
  const auto result = run({"list"});
  EXPECT_EQ(result.code, 0);
  for (const char* name : {"myers_and", "0x0B", "0x17", "0x80"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, ShowPrintsTruthTable) {
  const auto result = run({"show", "0x0B"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("A B C | GFP"), std::string::npos);
  EXPECT_NE(result.out.find("Cello-style"), std::string::npos);
}

TEST(Cli, ShowUnknownCircuitFails) {
  const auto result = run({"show", "0xFF"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("0xFF"), std::string::npos);
}

TEST(Cli, ExportWritesLoadableSbmlAndSbol) {
  TempPath sbml_path("export.sbml");
  TempPath sbol_path("export.sbol");
  const auto result = run({"export", "0x8", "--sbml", sbml_path.str(),
                           "--sbol", sbol_path.str()});
  EXPECT_EQ(result.code, 0);
  const auto model = glva::sbml::read_sbml_file(sbml_path.str());
  EXPECT_EQ(model.species.size(), 5u);
  const auto design = glva::sbol::read_design_file(sbol_path.str());
  EXPECT_NO_THROW(design.check());
}

TEST(Cli, ExportWithoutTargetsIsUsageError) {
  EXPECT_EQ(run({"export", "0x8"}).code, 2);
}

TEST(Cli, ExportSbolOfMyersCircuitExplainsRefusal) {
  TempPath path("myers.sbol");
  const auto result = run({"export", "myers_and", "--sbol", path.str()});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("behavioural"), std::string::npos);
}

TEST(Cli, VerifyCatalogCircuitSucceeds) {
  const auto result = run({"verify", "0x1C", "--total-time", "10000"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("MATCH"), std::string::npos);
  EXPECT_NE(result.out.find("fitness"), std::string::npos);
}

TEST(Cli, VerifyAtBadThresholdFailsWithWrongStates) {
  const auto result = run({"verify", "0x0B", "--threshold", "3"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("wrong state"), std::string::npos);
}

TEST(Cli, AnalyzeExportedModelRoundTrips) {
  TempPath sbml_path("analyze.sbml");
  ASSERT_EQ(run({"export", "0xE", "--sbml", sbml_path.str()}).code, 0);
  // 0xE is OR: expected bits {01,10,11} = 0b1110 = 0xE (the catalog pun).
  const auto result =
      run({"analyze", sbml_path.str(), "--inputs", "A,B", "--output", "GFP",
           "--expected", "0xE"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("MATCH"), std::string::npos);
}

TEST(Cli, AnalyzeRequiresInputs) {
  TempPath sbml_path("noinputs.sbml");
  ASSERT_EQ(run({"export", "0xE", "--sbml", sbml_path.str()}).code, 0);
  const auto result = run({"analyze", sbml_path.str()});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--inputs"), std::string::npos);
}

TEST(Cli, AnalyzeWritesCsv) {
  TempPath sbml_path("csv.sbml");
  TempPath csv_path("analytics.csv");
  ASSERT_EQ(run({"export", "0x1", "--sbml", sbml_path.str()}).code, 0);
  const auto result = run({"analyze", sbml_path.str(), "--inputs", "A,B",
                           "--csv", csv_path.str()});
  EXPECT_EQ(result.code, 0);
  std::ifstream csv(csv_path.str());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("case,case_count"), std::string::npos);
}

TEST(Cli, VerifyWithDigitizeSinkMatchesMemorySink) {
  const std::filesystem::path dir = "glva_test_digitize_archive";
  std::filesystem::remove_all(dir);
  const auto memory =
      run({"verify", "myers_and", "--total-time", "600", "--seed", "4"});
  const auto digitize =
      run({"verify", "myers_and", "--total-time", "600", "--seed", "4",
           "--sink", "digitize", "--spill-dir", dir.string()});
  EXPECT_EQ(memory.code, digitize.code) << digitize.err;
  // The analytics table and verdict are identical; only timing lines
  // differ.
  EXPECT_EQ(memory.out.substr(0, memory.out.find("timing:")),
            digitize.out.substr(0, digitize.out.find("timing:")));

  // The archive holds the acquisition's planes: one per input, then the
  // output, over the 601 grid points of t = 0..600.
  const auto spec = glva::circuits::CircuitRepository::build("myers_and");
  glva::core::ExperimentConfig config;
  config.total_time = 600.0;
  config.seed = 4;
  const glva::core::Acquisition acquired = glva::core::acquire(spec, config);
  {
    glva::store::SpillReader reader((dir / "myers_and-s4.glvt").string());
    EXPECT_EQ(reader.content_kind(), glva::store::glvt::ContentKind::kBits);
    EXPECT_EQ(reader.sample_count(), 601u);
    const glva::core::PackedDigitalData archived = glva::core::load_digitized(
        reader, spec.input_ids.size(), config.threshold);
    EXPECT_EQ(archived.inputs, acquired.planes.inputs);
    EXPECT_EQ(archived.output, acquired.planes.output);
  }
  std::filesystem::remove_all(dir);
}

TEST(Cli, SpillSinkWithoutDirIsUsageError) {
  const auto result =
      run({"verify", "myers_not", "--total-time", "100", "--sink", "spill"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--spill-dir"), std::string::npos);
}

TEST(Cli, UnknownSinkIsUsageError) {
  const auto result =
      run({"verify", "myers_not", "--total-time", "100", "--sink", "tape"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("mem | spill | digitize"), std::string::npos);
}

TEST(Cli, FailedRunLeavesNoPartialStreamedCsv) {
  // The streamed --csv goes to a temp file renamed onto --csv only after
  // a successful run: a replicate failure (unwritable spill directory)
  // must leave no partial CSV behind — and must not destroy a result
  // file from an earlier successful run.
  struct TestCase {
    const char* name;
    std::vector<std::string> args;
  };
  const TestCase cases[] = {
      TestCase{.name = "ensemble",
               .args = {"ensemble", "0x1", "--replicates", "2",
                        "--total-time", "200"}},
      TestCase{.name = "check",
               .args = {"check", "0x1", "--property", "G(A->F[0,50]GFP)",
                        "--replicates", "2", "--total-time", "200"}},
  };
  for (const TestCase& c : cases) {
    // Both archiving sinks fail the same way when the directory cannot
    // be created.
    for (const char* sink : {"spill", "digitize"}) {
      const std::string label = std::string(c.name) + " --sink " + sink;
      TempPath csv_path(std::string(c.name) + "_" + sink + "_partial.csv");
      const std::string temp_path = csv_path.str() + ".partial";
      {
        std::ofstream previous(csv_path.str(), std::ios::binary);
        previous << "previous successful result\n";
      }
      std::vector<std::string> args = c.args;
      args.insert(args.end(), {"--csv", csv_path.str(), "--sink", sink,
                               "--spill-dir", "/proc/glva-nonexistent/spill"});
      const auto result = run(args);
      EXPECT_EQ(result.code, 2) << label;
      EXPECT_FALSE(std::filesystem::exists(temp_path)) << label;
      std::ifstream survivor(csv_path.str(), std::ios::binary);
      std::string first_line;
      ASSERT_TRUE(std::getline(survivor, first_line)) << label;
      EXPECT_EQ(first_line, "previous successful result") << label;
    }
  }
}

TEST(Cli, EnsembleCsvDirSplitsTheAllReplicateCsv) {
  // --csv-dir writes one file per replicate, each holding that
  // replicate's rows of the --csv file without the replicate column.
  TempPath csv_path("ensemble_all.csv");
  const std::filesystem::path dir = "glva_test_ensemble_csv_dir";
  std::filesystem::remove_all(dir);
  const auto result =
      run({"ensemble", "0x1", "--replicates", "3", "--total-time", "200",
           "--seed", "42", "--csv", csv_path.str(), "--csv-dir",
           dir.string()});
  // 0x1 mis-extracts at this hold time, so the verdict may be a mismatch
  // (exit 1); the files are written either way.
  ASSERT_NE(result.code, 2) << result.err;

  std::ifstream all(csv_path.str(), std::ios::binary);
  std::string header;
  ASSERT_TRUE(std::getline(all, header));
  const std::string kReplicate = "replicate,";
  ASSERT_EQ(header.rfind(kReplicate, 0), 0u) << header;
  const std::string replicate_header = header.substr(kReplicate.size());
  EXPECT_EQ(replicate_header.rfind("case,", 0), 0u) << replicate_header;
  std::vector<std::string> expected(3, replicate_header + "\n");
  for (std::string line; std::getline(all, line);) {
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    const std::size_t replicate = std::stoul(line.substr(0, comma));
    ASSERT_LT(replicate, expected.size()) << line;
    expected[replicate] += line.substr(comma + 1) + "\n";
  }

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{
                       "replicate_000.csv", "replicate_001.csv",
                       "replicate_002.csv"}));
  for (std::size_t r = 0; r < expected.size(); ++r) {
    std::ifstream file(dir / names.at(r), std::ios::binary);
    std::ostringstream bytes;
    bytes << file.rdbuf();
    EXPECT_EQ(bytes.str(), expected[r]) << names.at(r);
  }
  std::filesystem::remove_all(dir);
}

TEST(Cli, EnsembleWritesConfidenceCsv) {
  TempPath ci_path("ensemble_ci.csv");
  const auto result =
      run({"ensemble", "0x1", "--replicates", "3", "--total-time", "400",
           "--seed", "42", "--ci-csv", ci_path.str()});
  EXPECT_NE(result.out.find("95% normal CI"), std::string::npos);
  std::ifstream csv(ci_path.str());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("metric,mean,stddev,ci95_low,ci95_high"),
            std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_NE(row.find("pfobe_percent"), std::string::npos);
}

TEST(Cli, EstimatePrintsThresholdAndDelay) {
  const auto result = run({"estimate", "myers_not", "--total-time", "6000"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("threshold estimate"), std::string::npos);
  EXPECT_NE(result.out.find("recommended hold"), std::string::npos);
}

TEST(Cli, EstimateRefusesNonFiniteOrNonPositiveDurationsAndLevels) {
  struct Case {
    const char* option;
    const char* value;
    const char* field;
  };
  const Case cases[] = {
      {"--total-time", "nan", "total_time"},
      {"--total-time", "inf", "total_time"},
      {"--probe-level", "nan", "high_level"},
      {"--probe-level", "-3", "high_level"},
  };
  // Each case must be refused before anything simulates: far below this
  // bound, where a hang or a paper-scale run would be far above it.
  constexpr auto kBound = std::chrono::seconds(2);
  for (const Case& c : cases) {
    const std::string label = std::string(c.option) + " " + c.value;
    const auto start = std::chrono::steady_clock::now();
    const auto result = run({"estimate", "0x0B", c.option, c.value});
    EXPECT_EQ(result.code, 2) << label;
    EXPECT_NE(result.err.find(c.field), std::string::npos)
        << label << ": " << result.err;
    EXPECT_LT(std::chrono::steady_clock::now() - start, kBound) << label;
  }
}

/// A counter's value in a snapshot (0 when absent).
std::uint64_t counter_value(const glva::obs::Snapshot& snapshot,
                            const std::string& name) {
  for (const auto& sample : snapshot.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

TEST(Cli, MetricsOutWritesTheSnapshotWhenTheCommandReturns) {
  const TempPath metrics_path("metrics.json");
  const glva::obs::Snapshot before = glva::obs::snapshot();
  const auto result = run({"verify", "myers_not", "--total-time", "400",
                           "--seed", "4", "--metrics-out", metrics_path.str()});
  ASSERT_EQ(result.code, 0) << result.err;
  std::ifstream file(metrics_path.str());
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const glva::serve::Json json = glva::serve::parse_json(text.str());
  const glva::serve::Json* counters = json.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  ASSERT_NE(json.find("histograms"), nullptr);
  if (!glva::obs::metrics_enabled()) GTEST_SKIP() << "metrics compiled out";

  // The snapshot is the process's, so compare deltas over this one run:
  // 401 grid samples (0, 1, ..., 400) in at most 401 holds.
  const auto written = [&](const std::string& name) -> std::uint64_t {
    const glva::serve::Json* member = counters->find(name);
    return member == nullptr ? 0 : std::stoull(member->number);
  };
  const std::uint64_t samples = written("sim.sampler.samples") -
                                counter_value(before, "sim.sampler.samples");
  const std::uint64_t holds = written("sim.sampler.holds") -
                              counter_value(before, "sim.sampler.holds");
  EXPECT_EQ(samples, 401u);
  EXPECT_GT(holds, 0u);
  EXPECT_LE(holds, samples);

  EXPECT_EQ(run({"verify", "myers_not", "--metrics-out"}).code, 2);
  EXPECT_EQ(run({"verify", "myers_not", "--metrics-out="}).code, 2);
}

TEST(Cli, PlanesAreBuiltOnlyForTheMonitorsAndTheDigitizeArchive) {
  // Algorithm 1 reduces its counts from the sampler's holds, so verify,
  // ensemble and sweep digitize no plane; check's monitors and the
  // --sink digitize archive digitize every grid sample once.
  if (!glva::obs::metrics_enabled()) GTEST_SKIP() << "metrics compiled out";
  const std::string spill_dir = ::testing::TempDir() + "glva_test_planes_" +
                                std::to_string(::getpid());
  struct Case {
    std::vector<std::string> args;
    bool digitizes;
  };
  const std::vector<std::string> common = {"--total-time", "400", "--seed",
                                           "4"};
  const std::vector<Case> cases = {
      {{"verify", "myers_not"}, false},
      {{"ensemble", "myers_not", "--replicates", "3"}, false},
      {{"sweep", "myers_not"}, false},
      {{"check", "myers_not", "--property", "G(TetR->F[0,100]!GFP)"}, true},
      {{"verify", "myers_not", "--sink", "digitize", "--spill-dir",
        spill_dir},
       true},
  };
  for (const Case& c : cases) {
    std::vector<std::string> args = c.args;
    args.insert(args.end(), common.begin(), common.end());
    const glva::obs::Snapshot before = glva::obs::snapshot();
    const auto result = run(args);
    EXPECT_LE(result.code, 1) << args[0] << ": " << result.err;
    const glva::obs::Snapshot after = glva::obs::snapshot();
    const auto delta = [&](const std::string& name) {
      return counter_value(after, name) - counter_value(before, name);
    };
    const std::uint64_t samples = delta("sim.sampler.samples");
    EXPECT_GT(samples, 0u) << args[0];
    EXPECT_EQ(delta("store.digitize.samples"), c.digitizes ? samples : 0u)
        << args[0] << " " << args[2];
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(Cli, GlobalFlagsRefuseMissingAndBadValuesInStrippingOrder) {
  // Global flags are stripped before the command runs, in a fixed order:
  // --jobs, --log-level, --trace-out, --metrics-out. A flag stripped
  // earlier takes its value first, so the later flag is left trailing.
  struct Case {
    std::vector<std::string> flags;
    std::string message;
  };
  const std::string jobs_bad = "--jobs: expected a non-negative integer, got ";
  const std::string level_bad =
      "--log-level: expected error, warn, info, or debug, got ";
  const std::vector<Case> cases = {
      {{"--jobs"}, "--jobs: missing value"},
      {{"--jobs="}, jobs_bad + "''"},
      {{"--jobs", "-1"}, jobs_bad + "'-1'"},
      {{"--jobs", "x"}, jobs_bad + "'x'"},
      {{"--jobs=x"}, jobs_bad + "'x'"},
      {{"--jobs", "2", "--jobs", "-1"}, jobs_bad + "'-1'"},
      {{"--log-level"}, "--log-level: missing value"},
      {{"--log-level="}, level_bad + "''"},
      {{"--log-level", "loud"}, level_bad + "'loud'"},
      {{"--log-level=loud"}, level_bad + "'loud'"},
      {{"--trace-out"}, "--trace-out: missing value"},
      {{"--trace-out="}, "--trace-out: missing value"},
      {{"--trace-out", ""}, "--trace-out: missing value"},
      {{"--metrics-out"}, "--metrics-out: missing value"},
      {{"--metrics-out="}, "--metrics-out: missing value"},
      {{"--log-level", "--jobs", "2"}, "--log-level: missing value"},
      {{"--trace-out", "--log-level", "warn"}, "--trace-out: missing value"},
      {{"--metrics-out", "--trace-out", "t.json"},
       "--metrics-out: missing value"},
  };
  const glva::util::LogLevel level = glva::util::log_level();
  for (const Case& c : cases) {
    std::vector<std::string> args = {"version"};
    args.insert(args.end(), c.flags.begin(), c.flags.end());
    const auto result = run(args);
    SCOPED_TRACE(c.message);
    EXPECT_EQ(result.code, 2);
    EXPECT_EQ(result.err, "glva: " + c.message + "\n");
    EXPECT_TRUE(result.out.empty()) << "the command ran";
  }
  glva::util::set_log_level(level);
}

TEST(Cli, GlobalFlagsGivenTwiceKeepTheLastValue) {
  for (const char* flag : {"--trace-out", "--metrics-out"}) {
    SCOPED_TRACE(flag);
    const TempPath first("twice_a.json");
    const TempPath second("twice_b.json");
    const auto result =
        run({"version", flag, first.str(), flag, second.str()});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_FALSE(std::filesystem::exists(first.str()));
    EXPECT_TRUE(std::filesystem::exists(second.str()));
  }

  // The log level applies to this command's own diagnostics: the
  // "metrics written" line is info, so only the info-last order shows it.
  const glva::util::LogLevel level = glva::util::log_level();
  const TempPath metrics("twice_level.json");
  const auto quiet_last = run({"version", "--log-level", "info", "--log-level",
                               "error", "--metrics-out", metrics.str()});
  const auto info_last = run({"version", "--log-level=error",
                              "--log-level=info", "--metrics-out",
                              metrics.str()});
  glva::util::set_log_level(level);
  ASSERT_EQ(quiet_last.code, 0) << quiet_last.err;
  ASSERT_EQ(info_last.code, 0) << info_last.err;
  EXPECT_EQ(quiet_last.err.find("metrics written"), std::string::npos);
  EXPECT_NE(info_last.err.find("metrics written"), std::string::npos);

  // --jobs 1 runs replicates inline and --jobs 2 on the pool, which the
  // pool's task counter shows.
  if (!glva::obs::metrics_enabled()) GTEST_SKIP() << "metrics compiled out";
  const auto pool_tasks = [](const std::vector<std::string>& jobs) {
    std::vector<std::string> args = {"ensemble", "0x1", "--replicates", "2",
                                     "--total-time", "100", "--seed", "3"};
    args.insert(args.end(), jobs.begin(), jobs.end());
    const std::uint64_t before =
        counter_value(glva::obs::snapshot(), "exec.pool.tasks");
    const auto result = run(args);
    EXPECT_LE(result.code, 1) << result.err;  // 1: a replicate mismatched
    return counter_value(glva::obs::snapshot(), "exec.pool.tasks") - before;
  };
  EXPECT_EQ(pool_tasks({"--jobs", "2", "--jobs", "1"}), 0u);
  EXPECT_GT(pool_tasks({"--jobs=1", "--jobs=2"}), 0u);
}

TEST(Cli, SimdIsNotAnOption) {
  // The kernel variant is chosen by CPUID alone; a stale --simd is an
  // unknown option like any other.
  const auto result = run({"verify", "myers_not", "--total-time", "100",
                           "--simd", "scalar"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--simd"), std::string::npos);
}

TEST(Cli, MissingSubcommandArgumentIsUsageError) {
  for (const char* command : {"show", "export", "analyze", "verify",
                              "estimate"}) {
    const auto result = run({command});
    EXPECT_EQ(result.code, 2) << command;
  }
}

}  // namespace
