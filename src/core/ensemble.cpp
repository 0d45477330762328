#include "core/ensemble.h"

#include <sstream>
#include <utility>

#include "core/acquire.h"
#include "exec/parallel_runner.h"
#include "exec/seed_sequence.h"
#include "logic/quine_mccluskey.h"
#include "obs/trace.h"
#include "util/errors.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace glva::core {

MeanConfidence mean_confidence(const util::RunningStats& stats) {
  return MeanConfidence{
      stats.mean(), stats.stddev(),
      util::normal_ci95_half_width(stats.stddev(), stats.count())};
}

EnsembleResult run_ensemble(const circuits::CircuitSpec& spec,
                            const ExperimentConfig& config,
                            std::size_t replicates, std::size_t jobs,
                            const ReplicateObserver& observer) {
  return run_ensemble(spec, config, replicates, exec::ParallelRunner(jobs),
                      observer);
}

EnsembleResult run_ensemble(const circuits::CircuitSpec& spec,
                            const ExperimentConfig& config,
                            std::size_t replicates,
                            const exec::ParallelRunner& runner,
                            const ReplicateObserver& observer) {
  if (replicates == 0) {
    throw InvalidArgument("run_ensemble: need at least one replicate");
  }

  EnsembleResult ensemble;
  ensemble.circuit_name = spec.name;
  ensemble.base_config = config;
  ensemble.replicate_count = replicates;
  ensemble.replicate_matches.reserve(replicates);

  // Seeds are derived up front, before the fan-out, so each job is a pure
  // function of its index — the determinism contract of exec/.
  const exec::SeedSequence seeds(config.seed);
  ensemble.replicate_seeds = seeds.first(replicates);

  // Welford accumulators the commit stream folds into; commits arrive in
  // replicate order whatever the worker count, so every add() sequence —
  // and therefore every derived mean/stddev bit — matches the serial run.
  std::vector<util::RunningStats> fov_stats;
  std::vector<std::size_t> high_votes;
  util::RunningStats pfobe;
  util::RunningStats wrong_states;

  runner.run_reduce<ExperimentResult>(
      replicates,
      [&](std::size_t r) {
        GLVA_SPAN("replicate");
        ExperimentConfig replicate_config = job_config(spec, config, "-r", r);
        replicate_config.seed = ensemble.replicate_seeds[r];
        return run_experiment(spec, replicate_config);
      },
      [&](std::size_t r, ExperimentResult&& result) {
        GLVA_SPAN("reduce.commit");
        const std::size_t combinations =
            result.extraction.variation.records.size();
        if (r == 0) {
          ensemble.input_count = result.extraction.input_count;
          ensemble.input_names = result.extraction.input_names;
          ensemble.output_name = result.extraction.output_name;
          fov_stats.resize(combinations);
          high_votes.assign(combinations, 0);
        }
        for (std::size_t c = 0; c < combinations; ++c) {
          fov_stats[c].add(result.extraction.variation.records[c].fov_est);
          if (result.extraction.extracted().output(c)) ++high_votes[c];
        }
        const bool matches = result.verification.matches;
        ensemble.replicate_matches.push_back(matches);
        ensemble.match_count += matches ? 1 : 0;
        pfobe.add(result.extraction.fitness());
        wrong_states.add(
            static_cast<double>(result.verification.wrong_state_count()));
        if (observer) observer(r, result);
        // `result` is destroyed here: the replicate has collapsed to the
        // accumulators above, the O(1)-per-replicate memory bound.
      });

  const std::size_t combinations = fov_stats.size();
  ensemble.majority_logic = logic::TruthTable(ensemble.input_count);
  ensemble.combination_stats.resize(combinations);
  for (std::size_t c = 0; c < combinations; ++c) {
    CombinationEnsembleStats& stats = ensemble.combination_stats[c];
    stats.combination = c;
    stats.high_votes = high_votes[c];
    stats.fov_mean = fov_stats[c].mean();
    stats.fov_stddev = fov_stats[c].stddev();
    ensemble.majority_logic.set_output(c, 2 * stats.high_votes > replicates);
  }

  ensemble.expected = spec.expected;
  ensemble.majority_wrong_states =
      ensemble.majority_logic.differing_rows(spec.expected);
  ensemble.majority_matches = ensemble.majority_wrong_states.empty();

  ensemble.pfobe = mean_confidence(pfobe);
  ensemble.wrong_states = mean_confidence(wrong_states);
  return ensemble;
}

std::string render_ensemble_summary(const EnsembleResult& ensemble) {
  std::ostringstream out;
  out << "circuit:    " << ensemble.circuit_name << "\n"
      << "replicates: " << ensemble.replicate_count << " (base seed "
      << ensemble.base_config.seed << ", per-replicate streams)\n\n";

  util::TextTable table(
      {"comb", "high votes", "FOV mean", "FOV stddev", "majority"});
  table.set_align(1, util::TextTable::Align::kRight);
  table.set_align(2, util::TextTable::Align::kRight);
  table.set_align(3, util::TextTable::Align::kRight);
  table.set_align(4, util::TextTable::Align::kRight);
  for (const CombinationEnsembleStats& stats : ensemble.combination_stats) {
    table.add_row({ensemble.majority_logic.combination_label(stats.combination),
                   std::to_string(stats.high_votes) + "/" +
                       std::to_string(ensemble.replicate_count),
                   util::format_double(stats.fov_mean, 6),
                   util::format_double(stats.fov_stddev, 6),
                   ensemble.majority_logic.output(stats.combination) ? "1"
                                                                     : "0"});
  }
  out << table.str() << "\n";

  out << "majority logic:  " << ensemble.output_name << " = "
      << logic::minimize(ensemble.majority_logic, ensemble.input_names)
             .to_string()
      << "\n"
      << "intended logic:  " << ensemble.output_name << " = "
      << logic::minimize(ensemble.expected, ensemble.input_names).to_string()
      << "\n"
      << "majority verify: ";
  if (ensemble.majority_matches) {
    out << "MATCH\n";
  } else {
    std::vector<std::string> labels;
    for (const std::size_t c : ensemble.majority_wrong_states) {
      labels.push_back(ensemble.majority_logic.combination_label(c));
    }
    out << ensemble.majority_wrong_states.size() << " wrong state(s): "
        << util::join(labels, ", ") << "\n";
  }

  out << "replicates:      " << ensemble.match_count << "/"
      << ensemble.replicate_count << " individually recover the intended logic"
      << " (";
  for (std::size_t r = 0; r < ensemble.replicate_count; ++r) {
    out << (r == 0 ? "" : " ") << (ensemble.replicate_matches[r] ? "+" : "-");
  }
  out << ")\n";

  out << "PFoBE:           " << util::format_double(ensemble.pfobe.mean, 6)
      << " ± " << util::format_double(ensemble.pfobe.half_width, 6)
      << " % (95% normal CI, stddev "
      << util::format_double(ensemble.pfobe.stddev, 6) << ")\n"
      << "wrong states:    "
      << util::format_double(ensemble.wrong_states.mean, 6) << " ± "
      << util::format_double(ensemble.wrong_states.half_width, 6)
      << " per replicate (95% normal CI, stddev "
      << util::format_double(ensemble.wrong_states.stddev, 6) << ")\n";
  return out.str();
}

}  // namespace glva::core
