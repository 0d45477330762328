#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// The analysis-stage hot kernels, compiled once per instruction set.
///
/// Each kernel has one portable definition (`kernels.inc`). That source
/// is compiled three times: at the baseline ISA, with AVX2 + POPCNT, and
/// with AVX-512 F/BW/DQ/VL/VPOPCNTDQ. The compiler's vectorizer is what
/// makes the wider variants wider, so every variant computes the same
/// integers by construction. The conformance suite
/// (`tests/test_simd_kernels.cpp`) still holds each runnable variant to
/// naive oracles.
///
/// Dispatch happens once per process: the first `active()` call picks
/// the widest variant that is both compiled in and supported by the CPU
/// (`__builtin_cpu_supports`). Nothing else can pick: there is no flag,
/// environment variable or setter.
///
/// See docs/ANALYSIS.md ("The kernel dispatch table") for the callers and
/// the checklist for adding a kernel.
namespace glva::logic::simd {

/// The compiled variants, narrowest first. The values are what the
/// `simd.active_tier` gauge reports; 1 belonged to a retired SSE2 tier
/// and stays unused so the gauge keeps its meaning.
enum class IsaLevel : std::uint8_t { kScalar = 0, kAVX2 = 2, kAVX512 = 3 };

/// Every level, narrowest first.
inline constexpr IsaLevel kIsaLevels[] = {IsaLevel::kScalar, IsaLevel::kAVX2,
                                          IsaLevel::kAVX512};

/// The dispatch table: one function pointer per hot kernel. All word
/// arrays are `logic::BitStream` words (LSB-first, 64 samples per word);
/// none of the pointers need any particular alignment beyond the
/// element type's natural alignment.
struct KernelSet {
  IsaLevel level;
  const char* name;  ///< "scalar" | "avx2" | "avx512"

  /// Σ popcount(words[i]) over i in [0, n).
  std::size_t (*popcount_words)(const std::uint64_t* words, std::size_t n);

  /// Adjacent-bit transitions across the word array: bit k of word w
  /// counts iff sample 64w+k differs from its predecessor sample. Bit 0
  /// of word 0 has no predecessor and never counts; the last word's
  /// diff bits are masked by `tail_mask` (ones at the valid bit
  /// positions), so bits above it in words[n-1] are ignored — the range
  /// form `BitStream::transition_count(begin, end)` ends mid-word.
  /// Precondition: n >= 1.
  std::size_t (*transition_count_words)(const std::uint64_t* words,
                                        std::size_t n,
                                        std::uint64_t tail_mask);

  // Sliding-window building blocks of the temporal-property monitor
  // (src/props/monitor.cpp, docs/PROPERTIES.md): combine `dst` with a
  // bit-shifted view of `src` across the whole n-word array. "Down"
  // shifts toward sample 0 (bit j of the view is src bit j + shift),
  // "up" toward higher samples (bit j is src bit j - shift); `shift` is
  // an arbitrary bit count, not a word multiple. Bits of the view that
  // fall outside [0, 64n) read as 0 for the OR forms and as 1 for the
  // AND form (a bounded-globally window truncated at the trace edge must
  // not fail) — measured against the 64n-bit word array, so callers with
  // ragged tails pre-fill the tail bits to match and re-mask afterwards.
  // `dst` may alias `src` exactly (the in-place cascade case); partial
  // overlap is not supported.

  /// dst[j] |= src[j + shift] over the whole array (zero past the end).
  void (*or_shift_down_words)(const std::uint64_t* src, std::size_t n,
                              std::size_t shift, std::uint64_t* dst);

  /// dst[j] &= src[j + shift] over the whole array (ones past the end).
  void (*and_shift_down_words)(const std::uint64_t* src, std::size_t n,
                               std::size_t shift, std::uint64_t* dst);

  /// dst[j] |= src[j - shift] over the whole array (zero before bit 0).
  void (*or_shift_up_words)(const std::uint64_t* src, std::size_t n,
                            std::size_t shift, std::uint64_t* dst);
};

/// Canonical lower-case name of a level ("scalar", "avx2", "avx512").
[[nodiscard]] const char* isa_level_name(IsaLevel level) noexcept;

/// True when the running CPU can execute `level`'s instructions
/// (kScalar is always true; the x86 variants use __builtin_cpu_supports
/// and are false on non-x86 builds).
[[nodiscard]] bool cpu_supports(IsaLevel level) noexcept;

/// The kernel set compiled into this binary for `level`, or nullptr
/// when the toolchain could not build it (non-x86 target, or the
/// compiler lacks the ISA flags). Compiled-in does NOT imply runnable
/// here — see kernel_set().
[[nodiscard]] const KernelSet* compiled_kernel_set(IsaLevel level) noexcept;

/// The kernel set for `level` iff it is both compiled in and supported
/// by the running CPU; nullptr otherwise. kScalar never returns null.
[[nodiscard]] const KernelSet* kernel_set(IsaLevel level) noexcept;

/// Every kernel set runnable on this host, narrowest (scalar) first —
/// what the conformance suite and bench_bitstream enumerate.
[[nodiscard]] std::vector<const KernelSet*> available_kernel_sets();

/// The widest runnable kernel set, resolved on the first call and fixed
/// for the life of the process.
[[nodiscard]] const KernelSet& active();

/// Convenience: active().level.
[[nodiscard]] IsaLevel active_level();

}  // namespace glva::logic::simd
