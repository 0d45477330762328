#include "props/check.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/acquire.h"
#include "core/adc.h"
#include "exec/seed_sequence.h"
#include "logic/input_runs.h"
#include "obs/trace.h"
#include "props/monitor.h"
#include "props/reference.h"
#include "util/errors.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::props {

namespace {

/// One replicate end to end: acquire its planes, then check them.
CheckReplicate run_one(const circuits::CircuitSpec& spec,
                       const core::ExperimentConfig& config,
                       const std::vector<std::string>& names,
                       const std::vector<PropertyPtr>& properties) {
  const core::Acquisition acquired = core::acquire(spec, config);
  GLVA_SPAN("monitor");
  return check_planes(acquired.planes, names, properties, config.seed);
}

std::string violation_label(std::size_t index, double sampling_period) {
  if (index == kNoViolation) return "-";
  return "t=" +
         util::format_double(static_cast<double>(index) * sampling_period, 6);
}

}  // namespace

CheckReplicate check_planes(const core::PackedDigitalData& data,
                            const std::vector<std::string>& names,
                            const std::vector<PropertyPtr>& properties,
                            std::uint64_t seed) {
  logic::InputRunWalker walker(data.inputs);
  CheckReplicate replicate;
  replicate.seed = seed;
  replicate.sample_count = data.sample_count();

  PackedNamedPlanes planes;
  planes.names = names;
  for (const logic::BitStream& input : data.inputs) {
    planes.planes.push_back(&input);
  }
  planes.planes.push_back(&data.output);

  // Every verdict first, so one walk over the input runs reduces them all.
  std::vector<logic::BitStream> verdicts;
  verdicts.reserve(properties.size());
  for (const PropertyPtr& property : properties) {
    verdicts.push_back(evaluate_packed(*property, planes));
    PropertyCheck check;
    check.property = to_string(*property);
    check.samples = data.sample_count();
    check.combinations.resize(std::size_t{1} << data.input_count());
    for (std::size_t c = 0; c < check.combinations.size(); ++c) {
      check.combinations[c].combination = c;
    }
    replicate.properties.push_back(std::move(check));
  }

  logic::InputRun run;
  while (walker.next(run)) {
    const std::size_t end = run.start + run.length;
    for (std::size_t p = 0; p < verdicts.size(); ++p) {
      CombinationCheck& comb =
          replicate.properties[p].combinations[run.combination];
      comb.samples += run.length;
      comb.satisfied += verdicts[p].popcount(run.start, end);
      // Runs come in sample order: the first violation found is the lowest.
      if (comb.first_violation == kNoViolation) {
        const std::size_t zero = verdicts[p].find_zero(run.start, end);
        if (zero != end) comb.first_violation = zero;
      }
    }
  }

  for (PropertyCheck& check : replicate.properties) {
    for (const CombinationCheck& comb : check.combinations) {
      check.satisfied += comb.satisfied;
      check.first_violation =
          std::min(check.first_violation, comb.first_violation);
    }
  }
  return replicate;
}

CheckReplicate check_planes_reference(const core::DigitalData& data,
                                      const std::vector<std::string>& names,
                                      const std::vector<PropertyPtr>& properties,
                                      std::uint64_t seed) {
  CheckReplicate replicate;
  replicate.seed = seed;
  const std::size_t n = data.sample_count();
  replicate.sample_count = n;
  const std::size_t input_count = data.input_count();

  // Combination id per sample, MSB-first input order.
  std::vector<std::size_t> id(n, 0);
  for (std::size_t i = 0; i < input_count; ++i) {
    const std::vector<bool>& input = data.inputs[i];
    const std::size_t bit = input_count - 1 - i;
    for (std::size_t j = 0; j < n; ++j) {
      if (input[j]) id[j] |= std::size_t{1} << bit;
    }
  }

  NamedPlanes planes;
  planes.names = names;
  planes.planes = data.inputs;
  planes.planes.push_back(data.output);

  const std::size_t combinations = std::size_t{1} << input_count;
  for (const PropertyPtr& property : properties) {
    const std::vector<bool> verdict = evaluate_reference(*property, planes);

    PropertyCheck check;
    check.property = to_string(*property);
    check.samples = n;
    check.combinations.resize(combinations);
    for (std::size_t c = 0; c < combinations; ++c) {
      check.combinations[c].combination = c;
    }
    for (std::size_t j = 0; j < n; ++j) {
      CombinationCheck& comb = check.combinations[id[j]];
      ++comb.samples;
      if (verdict[j]) {
        ++comb.satisfied;
        ++check.satisfied;
      } else {
        if (comb.first_violation == kNoViolation) comb.first_violation = j;
        if (check.first_violation == kNoViolation) check.first_violation = j;
      }
    }
    replicate.properties.push_back(std::move(check));
  }
  return replicate;
}

CheckResult run_check(const circuits::CircuitSpec& spec,
                      const core::ExperimentConfig& config,
                      const std::vector<PropertyPtr>& properties,
                      std::size_t replicates,
                      const exec::ParallelRunner& runner,
                      const CheckObserver& observer) {
  if (replicates == 0) {
    throw InvalidArgument("run_check: need at least one replicate");
  }
  if (properties.empty()) {
    throw InvalidArgument("run_check: need at least one property (--property)");
  }
  const std::vector<std::string> names = core::plane_names(spec);
  for (const PropertyPtr& property : properties) {
    if (!property) throw InvalidArgument("run_check: null property");
    validate_atoms(*property, names);
  }

  CheckResult result;
  result.circuit_name = spec.name;
  result.base_config = config;
  result.replicate_count = replicates;
  result.input_count = spec.input_ids.size();
  result.input_names = spec.input_ids;
  result.output_name = spec.output_id;

  const exec::SeedSequence seeds(config.seed);
  result.replicate_seeds = seeds.first(replicates);

  struct Accumulator {
    util::RunningStats fraction;
    std::size_t violated = 0;
    std::vector<util::RunningStats> combination;
  };
  std::vector<Accumulator> accumulators(properties.size());

  runner.run_reduce<CheckReplicate>(
      replicates,
      [&](std::size_t r) {
        core::ExperimentConfig replicate_config =
            core::job_config(spec, config, "-r", r);
        replicate_config.seed = result.replicate_seeds[r];
        return run_one(spec, replicate_config, names, properties);
      },
      [&](std::size_t r, CheckReplicate&& replicate) {
        if (r == 0) {
          result.sample_count = replicate.sample_count;
          result.first = replicate;
        }
        for (std::size_t i = 0; i < properties.size(); ++i) {
          const PropertyCheck& check = replicate.properties[i];
          Accumulator& accumulator = accumulators[i];
          accumulator.fraction.add(check.fraction());
          if (check.first_violation != kNoViolation) ++accumulator.violated;
          if (accumulator.combination.size() < check.combinations.size()) {
            accumulator.combination.resize(check.combinations.size());
          }
          for (std::size_t c = 0; c < check.combinations.size(); ++c) {
            accumulator.combination[c].add(check.combinations[c].fraction());
          }
        }
        if (observer) observer(r, replicate);
      });

  for (std::size_t i = 0; i < properties.size(); ++i) {
    PropertyCheckStats stats;
    stats.property = to_string(*properties[i]);
    stats.fraction = core::mean_confidence(accumulators[i].fraction);
    stats.violated_replicates = accumulators[i].violated;
    for (const util::RunningStats& comb : accumulators[i].combination) {
      stats.combination_fraction.push_back(core::mean_confidence(comb));
    }
    result.properties.push_back(std::move(stats));
  }
  return result;
}

CheckResult run_check(const circuits::CircuitSpec& spec,
                      const core::ExperimentConfig& config,
                      const std::vector<PropertyPtr>& properties,
                      std::size_t replicates, std::size_t jobs,
                      const CheckObserver& observer) {
  return run_check(spec, config, properties, replicates,
                   exec::ParallelRunner(jobs), observer);
}

std::string render_check_summary(const CheckResult& result,
                                 double min_satisfaction) {
  std::ostringstream out;
  out << "circuit:    " << result.circuit_name << "\n"
      << "replicates: " << result.replicate_count << " (base seed "
      << result.base_config.seed << ", per-replicate streams)\n"
      << "samples:    " << result.sample_count << " per replicate\n"
      << "properties: " << result.properties.size() << "\n";

  const logic::TruthTable labels(result.input_count);
  const double period = result.base_config.sampling_period;
  for (std::size_t i = 0; i < result.properties.size(); ++i) {
    const PropertyCheckStats& stats = result.properties[i];
    const PropertyCheck& first = result.first.properties[i];
    out << "\nproperty:   " << stats.property << "\n";

    util::TextTable table(
        {"comb", "samples", "satisfied", "fraction", "first violation"});
    table.set_align(1, util::TextTable::Align::kRight);
    table.set_align(2, util::TextTable::Align::kRight);
    table.set_align(3, util::TextTable::Align::kRight);
    table.set_align(4, util::TextTable::Align::kRight);
    for (const CombinationCheck& comb : first.combinations) {
      table.add_row({labels.combination_label(comb.combination),
                     std::to_string(comb.samples),
                     std::to_string(comb.satisfied),
                     util::format_double(comb.fraction(), 6),
                     violation_label(comb.first_violation, period)});
    }
    table.add_row({"all", std::to_string(first.samples),
                   std::to_string(first.satisfied),
                   util::format_double(first.fraction(), 6),
                   violation_label(first.first_violation, period)});
    out << table.str();

    if (result.replicate_count > 1) {
      out << "across replicates: fraction "
          << util::format_double(stats.fraction.mean, 6) << " ± "
          << util::format_double(stats.fraction.half_width, 6)
          << " (95% normal CI, stddev "
          << util::format_double(stats.fraction.stddev, 6)
          << "), violations in " << stats.violated_replicates << "/"
          << result.replicate_count << " replicate(s)\n";
    }
  }

  out << "\nverdict:    "
      << (result.satisfied(min_satisfaction) ? "PASS" : "FAIL")
      << " (min satisfaction " << util::format_double(min_satisfaction, 6)
      << ")\n";
  return out.str();
}

}  // namespace glva::props
