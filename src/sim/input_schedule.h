#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// Input stimulus programs: which clamped level each input species holds
/// over which time window. The paper's experiments sweep all 2^N input
/// combinations in ascending binary order, holding each for at least the
/// circuit's propagation delay.
namespace glva::sim {

/// One phase: starting at `start_time`, clamp `levels[i]` onto input `i`.
struct InputPhase {
  double start_time = 0.0;
  std::vector<double> levels;  ///< one level per input species, in order
};

/// A piecewise-constant stimulus program over a fixed set of input species.
class InputSchedule {
public:
  InputSchedule() = default;
  explicit InputSchedule(std::vector<std::string> input_ids)
      : input_ids_(std::move(input_ids)) {}

  /// Append a phase; phases must be added in increasing start-time order.
  void add_phase(double start_time, std::vector<double> levels);

  [[nodiscard]] const std::vector<std::string>& input_ids() const noexcept {
    return input_ids_;
  }
  [[nodiscard]] const std::vector<InputPhase>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] std::size_t input_count() const noexcept {
    return input_ids_.size();
  }

  /// The phase active at time `t` (the last phase with start_time <= t);
  /// throws glva::InvalidArgument when t precedes the first phase.
  [[nodiscard]] const InputPhase& phase_at(double t) const;

  /// The index of the phase active at time `t`.
  [[nodiscard]] std::size_t phase_index_at(double t) const;

  /// Build the paper's sweep: all 2^N combinations of {0, high_level} in
  /// ascending binary order (input_ids[0] is the MSB), dividing
  /// `total_time` equally so each combination holds for
  /// total_time / 2^N >= the circuit's propagation delay. Throws
  /// glva::InvalidArgument naming `total_time` or `high_level` when either
  /// is not finite and > 0, and for no inputs or more than 16.
  static InputSchedule combination_sweep(std::vector<std::string> input_ids,
                                         double total_time, double high_level);

  /// Single-phase schedule holding fixed levels from t = 0.
  static InputSchedule constant(std::vector<std::string> input_ids,
                                std::vector<double> levels);

private:
  std::vector<std::string> input_ids_;
  std::vector<InputPhase> phases_;
};

}  // namespace glva::sim
