// Micro-benchmarks for the bit-packed stream primitives the analysis stage
// is built on (logic::BitStream / logic::CombinationIndex): packing,
// popcount, bitwise combination, the combination masks, and the packed vs
// reference ADC. These isolate the word-parallel kernels whose
// composition produces the end-to-end speedup bench_analysis_runtime
// measures; each counter reports items/s in *samples*, so packed and
// reference rows are directly comparable.
//
// The BM_kernel_* rows are registered once per available SIMD tier
// (scalar/sse2/avx2/avx512), so one run shows the per-ISA throughput
// ladder of every dispatched kernel. `--no-timings` skips the benchmark
// harness entirely and prints a deterministic kernel fingerprint (pinned
// by tests/golden/bench_bitstream_kernels.txt).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "logic/combination_index.h"
#include "logic/simd/kernel_set.h"
#include "sim/rng.h"

namespace {

using namespace glva;
using logic::BitStream;

/// Deterministic random stream with plateau structure (runs of ~64), the
/// statistical shape of digitized sweep data rather than white noise.
BitStream make_stream(std::size_t bits, std::uint64_t seed) {
  sim::Rng rng(seed);
  BitStream stream(bits);
  bool level = false;
  std::size_t k = 0;
  while (k < bits) {
    const std::size_t run = 1 + rng.below(128);
    for (std::size_t j = 0; j < run && k < bits; ++j, ++k) {
      if (level) stream.set(k, true);
    }
    level = !level;
  }
  return stream;
}

std::vector<bool> make_bools(std::size_t bits, std::uint64_t seed) {
  return make_stream(bits, seed).unpack();
}

void BM_pack(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<bool> data = make_bools(bits, 1);
  for (auto _ : state) {
    BitStream stream = BitStream::pack(data);
    benchmark::DoNotOptimize(stream.word_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_popcount(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BitStream stream = make_stream(bits, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

// The vector<bool> equivalent of popcount: what the reference
// VariationAnalyzer pays per HIGH_O count.
void BM_popcount_vector_bool(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<bool> data = make_bools(bits, 2);
  for (auto _ : state) {
    std::size_t count = 0;
    for (const bool b : data) count += b ? 1 : 0;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_and_popcount(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BitStream a = make_stream(bits, 3);
  const BitStream b = make_stream(bits, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::and_popcount(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_bitwise_and(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BitStream a = make_stream(bits, 5);
  const BitStream b = make_stream(bits, 6);
  for (auto _ : state) {
    BitStream c = a & b;
    benchmark::DoNotOptimize(c.word_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_combination_index(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const std::vector<BitStream> inputs = {
      make_stream(bits, 9), make_stream(bits, 10), make_stream(bits, 11)};
  for (auto _ : state) {
    logic::CombinationIndex index(inputs);
    benchmark::DoNotOptimize(index.count(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits) *
                          static_cast<std::int64_t>(state.iterations()));
}

// ---------------------------------------------- per-ISA-level kernel rows

constexpr std::size_t kKernelBits = 1'000'000;
constexpr std::size_t kKernelWords = kKernelBits / 64;

/// Deterministic analog samples straddling the threshold (same plateau
/// shape as make_stream, rendered as molecule counts).
std::vector<double> make_analog(std::size_t samples, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> values(samples);
  for (double& v : values) v = 15.0 + rng.normal() * 10.0;
  return values;
}

/// One BM_kernel_* row per (kernel, available ISA tier): the per-level
/// throughput ladder of the dispatched analysis kernels, bypassing
/// simd::active() so each row pins exactly one tier.
void register_kernel_benchmarks() {
  using logic::simd::KernelSet;
  for (const KernelSet* set : logic::simd::available_kernel_sets()) {
    const std::string level = set->name;
    benchmark::RegisterBenchmark(
        ("BM_kernel_pack_threshold/" + level).c_str(),
        [set](benchmark::State& state) {
          const std::vector<double> analog = make_analog(kKernelBits, 12);
          std::vector<std::uint64_t> words(kKernelWords);
          for (auto _ : state) {
            set->pack_threshold_block(analog.data(), kKernelWords, 15.0,
                                      words.data());
            benchmark::DoNotOptimize(words.data());
          }
          state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                                  static_cast<std::int64_t>(state.iterations()));
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("BM_kernel_popcount/" + level).c_str(),
        [set](benchmark::State& state) {
          const BitStream stream = make_stream(kKernelBits, 13);
          for (auto _ : state) {
            benchmark::DoNotOptimize(
                set->popcount_words(stream.words().data(), kKernelWords));
          }
          state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                                  static_cast<std::int64_t>(state.iterations()));
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("BM_kernel_and_popcount/" + level).c_str(),
        [set](benchmark::State& state) {
          const BitStream a = make_stream(kKernelBits, 14);
          const BitStream b = make_stream(kKernelBits, 15);
          for (auto _ : state) {
            benchmark::DoNotOptimize(set->and_popcount_words(
                a.words().data(), b.words().data(), kKernelWords));
          }
          state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                                  static_cast<std::int64_t>(state.iterations()));
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("BM_kernel_transition_count/" + level).c_str(),
        [set](benchmark::State& state) {
          const BitStream stream = make_stream(kKernelBits, 16);
          for (auto _ : state) {
            benchmark::DoNotOptimize(set->transition_count_words(
                stream.words().data(), kKernelWords, ~std::uint64_t{0}));
          }
          state.SetItemsProcessed(static_cast<std::int64_t>(kKernelBits) *
                                  static_cast<std::int64_t>(state.iterations()));
        })
        ->Unit(benchmark::kMicrosecond);
  }
}

// -------------------------------------------------- --no-timings golden

/// Fold a word array to one 64-bit fingerprint (order-sensitive).
std::uint64_t fold_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t fold = 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t w : words) {
    fold = (fold ^ w) * 0x2545F4914F6CDD1DULL;
  }
  return fold;
}

/// Timing-free mode for the golden test: print the deterministic results
/// of every dispatched kernel on a fixed input, then one agreement row per
/// x86-64 baseline tier (scalar, sse2 — always present on the CI hosts the
/// golden is pinned for; wider tiers are checked by test_simd_kernels on
/// hosts that have them, so the golden bytes never depend on the CPU).
int run_no_timings() {
  using logic::simd::IsaLevel;
  using logic::simd::KernelSet;
  const KernelSet* scalar = logic::simd::kernel_set(IsaLevel::kScalar);
  if (scalar == nullptr) return 1;

  const std::vector<double> analog = make_analog(kKernelBits, 12);
  const BitStream a = make_stream(kKernelBits, 13);
  const BitStream b = make_stream(kKernelBits, 14);

  std::vector<std::uint64_t> packed(kKernelWords);
  scalar->pack_threshold_block(analog.data(), kKernelWords, 15.0,
                               packed.data());
  std::printf("bench_bitstream kernel fingerprint (%zu bits, seeds 12-14)\n",
              kKernelBits);
  std::printf("pack_threshold_block: %016llx\n",
              static_cast<unsigned long long>(fold_words(packed)));
  std::printf("popcount_words: %zu\n",
              scalar->popcount_words(a.words().data(), kKernelWords));
  std::printf("and_popcount_words: %zu\n",
              scalar->and_popcount_words(a.words().data(), b.words().data(),
                                         kKernelWords));
  std::printf("transition_count_words: %zu\n",
              scalar->transition_count_words(a.words().data(), kKernelWords,
                                             ~std::uint64_t{0}));

  int rc = 0;
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kSSE2}) {
    const KernelSet* set = logic::simd::kernel_set(level);
    const char* name = logic::simd::isa_level_name(level);
    if (set == nullptr) {
      std::printf("%s: unavailable\n", name);
      rc = 1;
      continue;
    }
    std::vector<std::uint64_t> variant(kKernelWords);
    set->pack_threshold_block(analog.data(), kKernelWords, 15.0,
                              variant.data());
    const bool ok =
        variant == packed &&
        set->popcount_words(a.words().data(), kKernelWords) ==
            scalar->popcount_words(a.words().data(), kKernelWords) &&
        set->and_popcount_words(a.words().data(), b.words().data(),
                                kKernelWords) ==
            scalar->and_popcount_words(a.words().data(), b.words().data(),
                                       kKernelWords) &&
        set->transition_count_words(a.words().data(), kKernelWords,
                                    ~std::uint64_t{0}) ==
            scalar->transition_count_words(a.words().data(), kKernelWords,
                                           ~std::uint64_t{0});
    std::printf("%s: %s\n", name, ok ? "ok" : "MISMATCH");
    if (!ok) rc = 1;
  }
  return rc;
}

}  // namespace

BENCHMARK(BM_pack)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_popcount)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_popcount_vector_bool)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_and_popcount)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_bitwise_and)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_combination_index)->Arg(1'000'000)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-timings") return run_no_timings();
  }
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
