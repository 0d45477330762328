// Runtime claim (Section IV): "the proposed algorithm takes about 8.4
// seconds to analyze the logic of a complex genetic circuit with
// significantly large-sized data."
//
// Measures the analysis stage alone (ADC -> CaseAnalyzer ->
// VariationAnalyzer -> ConstBoolExpr) on traces from 10^4 to 10^7 samples
// of a 3-input circuit, two ways: `analyze`, the production path (packed
// planes reduced along the input runs), and `analyze_digital` on
// core::digitize's vector<bool> streams, the reference stages it is held
// to. Shape targets: both are linear in sample count, the production path
// is well ahead of the reference at 10^6 samples, and a multi-million-
// sample trace lands in the seconds range of the paper's anecdote
// (absolute numbers depend on hardware).
//
// BM_analysis_packed_flipping_inputs is the run reduction's worst case:
// random input planes whose bits flip about every 2 samples, so the input
// combination changes almost every sample. No clamped sweep looks like
// that (it holds each combination for a whole phase); the row shows what
// the design gives up on such data.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/logic_analyzer.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace {

using namespace glva;

/// Synthesize a sweep-shaped trace: 3 clamped inputs cycling through all
/// combinations, output following C*(A'+B) with a noisy plateau — the same
/// statistical profile the real simulator produces, but generated fast
/// enough to scale to 10^7 samples.
sim::Trace make_trace(std::size_t samples, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::Trace trace({"A", "B", "C", "GFP"});
  const std::size_t per_combo = samples / 8 + 1;
  std::vector<double> row(4);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t combo = (k / per_combo) % 8;
    const bool a = (combo & 4U) != 0;
    const bool b = (combo & 2U) != 0;
    const bool c = (combo & 1U) != 0;
    row[0] = a ? 15.0 : 0.0;
    row[1] = b ? 15.0 : 0.0;
    row[2] = c ? 15.0 : 0.0;
    const bool high = c && (!a || b);
    const double mean = high ? 55.0 : 1.2;
    // Gaussian approximation of the Poisson plateau noise.
    row[3] = mean + rng.normal() * (high ? 7.4 : 1.1);
    if (row[3] < 0.0) row[3] = 0.0;
    trace.append(static_cast<double>(k), row);
  }
  return trace;
}

void BM_analysis_packed(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  const core::LogicAnalyzer analyzer;
  for (auto _ : state) {
    auto result = analyzer.analyze(trace, {"A", "B", "C"}, "GFP");
    benchmark::DoNotOptimize(result.construction.fitness_percent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["samples"] = static_cast<double>(samples);
}

void BM_analysis_reference(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  const core::LogicAnalyzer analyzer;
  for (auto _ : state) {
    auto result = analyzer.analyze_digital(
        core::digitize(trace, {"A", "B", "C"}, "GFP", 15.0), {"A", "B", "C"},
        "GFP");
    benchmark::DoNotOptimize(result.construction.fitness_percent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["samples"] = static_cast<double>(samples);
}

void BM_analysis_packed_flipping_inputs(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(43);
  const auto random_plane = [&] {
    std::vector<std::uint64_t> words((samples + 63) / 64);
    for (std::uint64_t& word : words) word = rng.next_u64();
    return logic::BitStream::from_words(samples, std::move(words));
  };
  core::PackedDigitalData data;
  for (int i = 0; i < 3; ++i) data.inputs.push_back(random_plane());
  data.output = random_plane();
  const core::LogicAnalyzer analyzer;
  for (auto _ : state) {
    auto result = analyzer.analyze_packed(data, {"A", "B", "C"}, "GFP");
    benchmark::DoNotOptimize(result.construction.fitness_percent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["samples"] = static_cast<double>(samples);
}

void BM_adc_only(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  for (auto _ : state) {
    auto digital = core::digitize(trace, {"A", "B", "C"}, "GFP", 15.0);
    benchmark::DoNotOptimize(digital.output.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_adc_only_packed(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sim::Trace trace = make_trace(samples, 42);
  for (auto _ : state) {
    auto digital = core::digitize_packed(trace, {"A", "B", "C"}, "GFP", 15.0);
    benchmark::DoNotOptimize(digital.output.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_analysis_packed)
    ->Arg(10'000)->Arg(100'000)->Arg(1'000'000)->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_analysis_reference)
    ->Arg(10'000)->Arg(100'000)->Arg(1'000'000)->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_analysis_packed_flipping_inputs)
    ->Arg(10'000)->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_adc_only)->Arg(1'000'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_adc_only_packed)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
