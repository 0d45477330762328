#include "props/check.h"

#include <bit>
#include <sstream>
#include <utility>

#include "core/acquire.h"
#include "core/adc.h"
#include "core/logic_analyzer.h"
#include "exec/seed_sequence.h"
#include "logic/combination_index.h"
#include "obs/trace.h"
#include "props/monitor.h"
#include "props/reference.h"
#include "util/errors.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::props {

namespace {

/// Packed evaluation of one replicate: one monitor pass per property,
/// then per-combination reduction through the CombinationIndex masks —
/// satisfaction counts via and_popcount, the first violation via the
/// first nonzero word of mask & ~verdict.
CheckReplicate evaluate_packed_replicate(
    const core::PackedDigitalData& data, const std::vector<std::string>& names,
    const std::vector<PropertyPtr>& properties, std::uint64_t seed) {
  CheckReplicate replicate;
  replicate.seed = seed;
  replicate.sample_count = data.sample_count();

  const logic::CombinationIndex index(data.inputs);
  PackedNamedPlanes planes;
  planes.names = names;
  for (const logic::BitStream& input : data.inputs) {
    planes.planes.push_back(&input);
  }
  planes.planes.push_back(&data.output);

  for (const PropertyPtr& property : properties) {
    const logic::BitStream verdict = evaluate_packed(*property, planes);
    const std::span<const std::uint64_t> v = verdict.words();

    PropertyCheck check;
    check.property = to_string(*property);
    check.samples = data.sample_count();
    for (std::size_t c = 0; c < index.combination_count(); ++c) {
      const logic::BitStream& mask = index.mask(c);
      const std::span<const std::uint64_t> m = mask.words();
      CombinationCheck comb;
      comb.combination = c;
      comb.samples = index.count(c);
      comb.satisfied = logic::and_popcount(mask, verdict);
      for (std::size_t w = 0; w < m.size(); ++w) {
        // ~v has ones in the tail, but the mask's zero tail kills them.
        const std::uint64_t bad = m[w] & ~v[w];
        if (bad != 0) {
          comb.first_violation =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bad));
          break;
        }
      }
      check.satisfied += comb.satisfied;
      if (comb.first_violation < check.first_violation) {
        check.first_violation = comb.first_violation;
      }
      check.combinations.push_back(comb);
    }
    replicate.properties.push_back(std::move(check));
  }
  return replicate;
}

/// Reference evaluation of one replicate: the per-sample loop over the
/// naive verdict vector. Bit-identical to the packed path (the masks
/// partition the samples, so the per-combination counts and the first
/// violating index agree exactly).
CheckReplicate evaluate_reference_replicate(
    const core::DigitalData& data, const std::vector<std::string>& names,
    const std::vector<PropertyPtr>& properties, std::uint64_t seed) {
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

/// One replicate end to end: acquire its planes, then evaluate every
/// property with the monitor the backend picks (the analyzer's rule: the
/// packed monitor up to kPackedAutoInputLimit inputs, the bit-identical
/// reference evaluator beyond it).
CheckReplicate run_one(const circuits::CircuitSpec& spec,
                       const core::ExperimentConfig& config,
                       const std::vector<std::string>& names,
                       const std::vector<PropertyPtr>& properties) {
  const core::Acquisition acquired = core::acquire(spec, config);
  GLVA_SPAN("monitor");
  if (core::packed_applies(config.backend, spec.input_ids.size())) {
    return evaluate_packed_replicate(acquired.planes, names, properties,
                                     config.seed);
  }
  return evaluate_reference_replicate(core::unpack(acquired.planes), names,
                                      properties, config.seed);
}

std::string violation_label(std::size_t index, double sampling_period) {
  if (index == kNoViolation) return "-";
  return "t=" +
         util::format_double(static_cast<double>(index) * sampling_period, 6);
}

}  // namespace

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
