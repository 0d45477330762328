#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Runtime-dispatched SIMD variants of the analysis-stage hot kernels.
///
/// Every kernel in a `KernelSet` is **bit-identical by contract** to the
/// scalar reference set (`kernel_set(IsaLevel::kScalar)`): same results
/// for NaN, signed zero, infinities, threshold-equal samples, ragged
/// tails, and misaligned pointers. The conformance suite
/// (`tests/test_simd_kernels.cpp`) fuzz-pins each compiled-in variant
/// against the scalar set; the dispatch choice is therefore a pure
/// throughput knob — it can never change a verdict, PFoBE, or FOV bit.
///
/// Dispatch is resolved once per process from, in priority order:
///  1. `set_active(level)` — the CLI's global `--simd` flag and tests;
///  2. the `GLVA_SIMD=scalar|sse2|avx2|avx512` environment variable
///     (used by CI to force fallback levels through the full test run);
///  3. CPUID: the widest level both compiled in and supported by the
///     host (`__builtin_cpu_supports`).
/// Forcing a level the host cannot run (or that was not compiled in) is
/// an error, not a silent fallback — a CI job forcing `avx512` on an
/// AVX2-only runner must fail, not quietly test nothing.
///
/// See docs/ANALYSIS.md ("The kernel dispatch table") for the layer map
/// and the checklist for adding a kernel.
namespace glva::logic::simd {

/// Instruction-set tiers, narrowest first. Each tier's kernel set may
/// reuse entries from a narrower tier when the wider ISA adds nothing
/// (e.g. kSSE2 shares the scalar popcount — SSE2 has no popcount
/// instruction).
enum class IsaLevel : std::uint8_t { kScalar = 0, kSSE2, kAVX2, kAVX512 };

/// Number of IsaLevel values (array sizing).
inline constexpr std::size_t kIsaLevelCount = 4;

/// The dispatch table: one function pointer per hot kernel. All word
/// arrays are `logic::BitStream` words (LSB-first, 64 samples per word);
/// none of the pointers need any particular alignment beyond the
/// element type's natural alignment.
struct KernelSet {
  IsaLevel level;
  const char* name;  ///< "scalar" | "sse2" | "avx2" | "avx512"

  /// Pack `words * 64` threshold comparisons: out[w] bit j =
  /// (samples[64w + j] >= threshold), NaN comparing false exactly like
  /// the scalar `>=`. Precondition: `samples` points at exactly
  /// `words * 64` readable doubles (use logic::pack_threshold_bits for
  /// ragged tails).
  void (*pack_threshold_block)(const double* samples, std::size_t words,
                               double threshold, std::uint64_t* out);

  /// Σ popcount(words[i]) over i in [0, n).
  std::size_t (*popcount_words)(const std::uint64_t* words, std::size_t n);

  /// Σ popcount(a[i] & b[i]) over i in [0, n) — the HIGH_O counter.
  std::size_t (*and_popcount_words)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);

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

  /// The CombinationIndex mask build: out[w] = AND over i in
  /// [0, inputs) of (planes[i][w] ^ invert[i]), where invert[i] is 0
  /// (keep the plane) or ~0 (complement it). Precondition: inputs >= 1.
  void (*combine_masks)(const std::uint64_t* const* planes,
                        const std::uint64_t* invert, std::size_t inputs,
                        std::size_t words, std::uint64_t* out);

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

/// Canonical lower-case name of a level ("scalar", "sse2", ...).
[[nodiscard]] const char* isa_level_name(IsaLevel level) noexcept;

/// Parse a level name (the GLVA_SIMD / --simd vocabulary, case-sensitive
/// lower-case). Throws glva::InvalidArgument on anything else.
[[nodiscard]] IsaLevel parse_isa_level(const std::string& name);

/// True when the running CPU can execute `level`'s instructions
/// (kScalar is always true; the x86 tiers use __builtin_cpu_supports
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
/// what the conformance suite enumerates.
[[nodiscard]] std::vector<const KernelSet*> available_kernel_sets();

/// The resolved dispatch table (see the resolution order above). The
/// first call resolves and caches; throws glva::InvalidArgument when
/// GLVA_SIMD names an unknown or unavailable level.
[[nodiscard]] const KernelSet& active();

/// Convenience: active().level.
[[nodiscard]] IsaLevel active_level();

/// Force the dispatch table to `level` (the --simd flag and the
/// forced-level conformance tests). Throws glva::InvalidArgument when
/// `level` is not available on this host. Not synchronized against
/// concurrently *running* kernels — call at startup or between runs;
/// results are bit-identical across levels regardless.
void set_active(IsaLevel level);

}  // namespace glva::logic::simd
