#ifndef GLVA_OBS_METRICS_H
#define GLVA_OBS_METRICS_H

// Process-wide metrics registry: named monotonic counters, gauges, and
// fixed-boundary latency histograms (docs/OBSERVABILITY.md has the full
// catalog). Every instrument owns process-global relaxed atomics: a
// counter or gauge write is one atomic operation, a histogram observation
// two (its bucket and its sum). snapshot() reads them under the registry
// mutex, which writers never take, so a snapshot never blocks the hot
// path. Call sites batch their writes (once per SSA phase, run, chunk,
// pool task or daemon request), so threads rarely touch the same
// instrument at once.
//
// Handles returned by counter()/gauge()/histogram() are interned and live
// for the whole process; call sites cache them once:
//
//   static obs::Counter& steps = obs::counter("sim.ssa.steps");
//   steps.add(local_steps);
//
// Compiling with -DGLVA_NO_METRICS replaces every handle with an inline
// no-op and snapshot() with an empty result, so instrumented call sites
// compile away entirely.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace glva::obs {

// Snapshot types are real in both build flavors so renderers and tests
// compile unconditionally; under GLVA_NO_METRICS the snapshot is empty.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;  // the sum of the buckets
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  // One count per boundary in histogram_boundaries(), plus a final
  // overflow bucket for values above the largest boundary.
  std::vector<std::uint64_t> buckets;
};

struct Snapshot {
  std::vector<CounterSample> counters;      // sorted by name
  std::vector<GaugeSample> gauges;          // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name
};

// Buckets per histogram: the 27 boundaries plus the overflow bucket.
inline constexpr std::size_t kHistogramBuckets = 28;

// Upper bucket boundaries shared by every histogram: a 1-2-5 ladder from
// 1 to 5e8 in the caller's unit (the name suffix states the unit, e.g.
// serve.latency_us.verify observes microseconds).
const std::vector<double>& histogram_boundaries();

// Human-readable snapshot (one metric per line) and a JSON object with
// "counters" / "gauges" / "histograms" members. Both are deterministic
// (metrics sorted by name) and print every double as its shortest
// round-trip decimal.
std::string render_text(const Snapshot& snap);
std::string render_json(const Snapshot& snap);

#ifdef GLVA_NO_METRICS

class Counter {
 public:
  void add(std::uint64_t) noexcept {}
  void increment() noexcept {}
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
};

class Histogram {
 public:
  void observe(double) noexcept {}
};

inline Counter& counter(std::string_view) {
  static Counter c;
  return c;
}

inline Gauge& gauge(std::string_view) {
  static Gauge g;
  return g;
}

inline Histogram& histogram(std::string_view) {
  static Histogram h;
  return h;
}

inline Snapshot snapshot() { return {}; }

inline constexpr bool metrics_enabled() { return false; }

class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram&) noexcept {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
};

#else  // !GLVA_NO_METRICS

class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  // Counts v in the first bucket whose boundary is >= v and adds it to
  // the sum.
  void observe(double v) noexcept;

 private:
  friend class Registry;
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<double> sum_{0.0};
};

// Interned lookup: the first call for a name registers the metric, later
// calls return the same handle. Thread-safe; handles are process-lifetime.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

// Reads every instrument, in name order.
Snapshot snapshot();

inline constexpr bool metrics_enabled() { return true; }

// RAII latency probe: observes the scope's elapsed time in microseconds.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) noexcept
      : hist_(h), start_(std::chrono::steady_clock::now()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_.observe(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            elapsed)
            .count());
  }

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

#endif  // GLVA_NO_METRICS

}  // namespace glva::obs

#endif  // GLVA_OBS_METRICS_H
