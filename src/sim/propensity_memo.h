#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crn/network.h"

namespace glva::sim {

/// Exact memo of `ReactionNetwork::propensity` for the SSA kernels, owned
/// by one simulation run and valid for one input phase.
///
/// Between two clamp writes a reaction's propensity is a pure function of
/// the whole-number molecule counts of the non-boundary species it
/// depends on: constant slots are never written during a run, and
/// boundary species change only when the simulator writes a phase's
/// clamps, after which it calls reset(). The memo keys each law on those
/// counts and returns the double `ReactionNetwork::propensity` produced
/// for the same key earlier, so a hit is bit-identical to evaluating
/// again. A miss evaluates the law (validity check included, so an
/// invalid propensity throws exactly when it did without the memo) and
/// stores the result; only validated values are ever stored.
///
/// A law bypasses the memo, and is evaluated every time, when it has no
/// non-boundary dependency, more than `kKeySpecies` of them, or a
/// dependency whose value is not a whole number in [0, kMaxCount]
/// (negative, -0.0, NaN, fractional, or too large) at that evaluation.
///
/// Each memoized law owns a direct-mapped table of `kSlotsPerLaw` slots
/// (16 bytes each); a colliding key replaces the slot's entry.
class PropensityMemo {
public:
  /// Most non-boundary dependencies a memoized law may have.
  static constexpr std::size_t kKeySpecies = 3;
  /// Bits per count in the packed key. kKeySpecies counts fill bits
  /// [0, 63), so no key equals the empty-slot marker (all ones).
  static constexpr unsigned kCountBits = 21;
  /// Largest count a key holds.
  static constexpr std::uint64_t kMaxCount =
      (std::uint64_t{1} << kCountBits) - 1;
  /// Table size per memoized law: 2^kSlotBits slots.
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::size_t kSlotsPerLaw = std::size_t{1} << kSlotBits;

  /// `network` must outlive the memo.
  explicit PropensityMemo(const crn::ReactionNetwork& network);

  /// `network.propensity(r, values)`, from the memo when reaction r was
  /// already evaluated on the same counts since the last reset().
  [[nodiscard]] double propensity(std::size_t r,
                                  const std::vector<double>& values);

  /// Forget every entry. Call after each write to a boundary species.
  void reset();

  /// Lookups (propensity() calls) and law evaluations (misses and
  /// bypasses) since the last publish_counters().
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::uint64_t evals() const noexcept { return evals_; }

  /// Add lookups() and evals() to the `sim.ssa.propensity_lookups` and
  /// `sim.ssa.propensity_evals` counters, then zero them.
  void publish_counters();

private:
  struct Law {
    std::array<std::size_t, kKeySpecies> species{};  // key species
    std::size_t key_size = 0;  // 0: the law always bypasses the memo
    std::size_t first_slot = 0;
  };
  struct Slot {
    std::uint64_t key = 0;
    double value = 0.0;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Pack law's counts into `key`; false when one is not a whole number
  /// in [0, kMaxCount].
  [[nodiscard]] static bool make_key(const Law& law,
                                     const std::vector<double>& values,
                                     std::uint64_t& key) noexcept;

  [[nodiscard]] double evaluate(std::size_t r,
                                const std::vector<double>& values) {
    ++evals_;
    return network_->propensity(r, values);
  }

  const crn::ReactionNetwork* network_;
  std::vector<Law> laws_;
  std::vector<Slot> slots_;
  std::uint64_t lookups_ = 0;
  std::uint64_t evals_ = 0;
};

inline bool PropensityMemo::make_key(const Law& law,
                                     const std::vector<double>& values,
                                     std::uint64_t& key) noexcept {
  key = 0;
  for (std::size_t i = 0; i < law.key_size; ++i) {
    const double x = values[law.species[i]];
    // signbit rejects negatives and -0.0; the range test NaN and +inf.
    if (std::signbit(x) || !(x <= static_cast<double>(kMaxCount))) {
      return false;
    }
    const auto count = static_cast<std::uint64_t>(x);
    if (static_cast<double>(count) != x) return false;  // fractional
    key = (key << kCountBits) | count;
  }
  return true;
}

inline double PropensityMemo::propensity(std::size_t r,
                                         const std::vector<double>& values) {
  ++lookups_;
  const Law& law = laws_[r];
  std::uint64_t key = 0;
  if (law.key_size == 0 || !make_key(law, values, key)) {
    return evaluate(r, values);
  }
  // Fibonacci hashing: the top kSlotBits bits of key * 2^64 / golden ratio.
  const std::uint64_t hash = (key * 0x9E3779B97F4A7C15ULL) >> (64u - kSlotBits);
  Slot& slot = slots_[law.first_slot + hash];
  if (slot.key == key) return slot.value;
  const double value = evaluate(r, values);  // throws before storing
  slot = Slot{key, value};
  return value;
}

}  // namespace glva::sim
