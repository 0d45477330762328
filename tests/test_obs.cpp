// Unit tests for the observability layer (src/obs/): the metrics
// registry's totals under concurrent writers and a concurrent reader,
// histogram quantile bounds, snapshot rendering and its number round trip,
// the span tracer's Chrome trace-event JSON, and the --trace-out CLI
// round trip.
//
// Metric names are process-global and the registry is never reset, so
// every test draws fresh "test.obs.<case>.<run>." names from run_prefix()
// and asserts exact totals only on those; the suite passes under
// --gtest_repeat.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/commands.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/log.h"

namespace {

using namespace glva;

/// "test.obs.<name>.<n>." with n new on every call, so each run of a
/// test names its own instruments.
std::string run_prefix(const std::string& name) {
  static std::atomic<int> runs{0};
  return "test.obs." + name + "." + std::to_string(runs++) + ".";
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            const std::string& name) {
  for (const auto& sample : snap.counters) {
    if (sample.name == name) return sample.value;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

std::int64_t gauge_value(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& sample : snap.gauges) {
    if (sample.name == name) return sample.value;
  }
  ADD_FAILURE() << "gauge not found: " << name;
  return 0;
}

const obs::HistogramSample* find_histogram(const obs::Snapshot& snap,
                                           const std::string& name) {
  for (const auto& sample : snap.histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

// ------------------------------------------------------------- registry

TEST(Metrics, CounterSumsExitedAndLiveThreads) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  const std::string p = run_prefix("merge");

  // Worker threads exit before the snapshot; the main thread, which also
  // writes, stays alive.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &p] {
      obs::Counter& c = obs::counter(p + "count");
      obs::Counter& weighted = obs::counter(p + "weighted");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
      weighted.add(static_cast<std::uint64_t>(t) + 1);  // 1+2+...+8 = 36
    });
  }
  for (auto& worker : workers) worker.join();
  obs::counter(p + "count").add(5);  // main thread

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(counter_value(snap, p + "count"), kThreads * kPerThread + 5);
  EXPECT_EQ(counter_value(snap, p + "weighted"), 36u);
}

TEST(Metrics, SnapshotsDuringWritesNeverGoBackAndEndExact) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  constexpr int kWriters = 4;
  constexpr std::uint64_t kAdds = 100000;
  constexpr std::uint64_t kObservations = 10000;
  const std::string p = run_prefix("live");
  obs::Counter& counter = obs::counter(p + "count");
  obs::Histogram& histogram = obs::histogram(p + "hist");

  const auto check_histogram = [&](const obs::Snapshot& snap) {
    const obs::HistogramSample* h = find_histogram(snap, p + "hist");
    if (h == nullptr) {
      ADD_FAILURE() << "histogram not found";
      return std::uint64_t{0};
    }
    EXPECT_EQ(h->buckets.size(), obs::kHistogramBuckets);
    EXPECT_EQ(h->count, std::accumulate(h->buckets.begin(), h->buckets.end(),
                                        std::uint64_t{0}));
    return h->count;
  };

  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        counter.increment();
        if (i % (kAdds / kObservations) == 0) {
          histogram.observe(static_cast<double>(t * 100 + 1));
        }
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last_count = 0;
  std::uint64_t last_observations = 0;
  int reads = 0;
  while (running.load() > 0 || reads == 0) {
    const obs::Snapshot snap = obs::snapshot();
    const std::uint64_t count = counter_value(snap, p + "count");
    const std::uint64_t observations = check_histogram(snap);
    EXPECT_GE(count, last_count);
    EXPECT_GE(observations, last_observations);
    last_count = count;
    last_observations = observations;
    ++reads;
  }
  for (auto& writer : writers) writer.join();

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(counter_value(snap, p + "count"), kWriters * kAdds);
  EXPECT_EQ(check_histogram(snap), kWriters * kObservations);
}

TEST(Metrics, SameNameReturnsSameHandle) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string name = run_prefix("alias") + "counter";
  obs::Counter& a = obs::counter(name);
  obs::Counter& b = obs::counter(name);
  EXPECT_EQ(&a, &b);
  a.increment();
  b.add(2);
  EXPECT_EQ(counter_value(obs::snapshot(), name), 3u);
}

TEST(Metrics, GaugeSetAndAdd) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string name = run_prefix("gauge") + "depth";
  obs::Gauge& g = obs::gauge(name);
  g.set(42);
  EXPECT_EQ(gauge_value(obs::snapshot(), name), 42);
  g.add(-50);
  EXPECT_EQ(gauge_value(obs::snapshot(), name), -8);
}

TEST(Metrics, SnapshotSortedByName) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string p = run_prefix("sort");
  obs::counter(p + "zz").increment();
  obs::counter(p + "aa").increment();
  obs::gauge(p + "zz").set(1);
  obs::gauge(p + "aa").set(1);
  const obs::Snapshot snap = obs::snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (std::size_t i = 1; i < snap.gauges.size(); ++i) {
    EXPECT_LT(snap.gauges[i - 1].name, snap.gauges[i].name);
  }
  for (std::size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
  }
}

// ----------------------------------------------------------- histograms

TEST(Metrics, HistogramQuantilesStayInsideTrueBucket) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  // All observations land in one bucket of the 1-2-5 ladder, so every
  // quantile estimate must fall inside that bucket's bounds.
  const std::string name = run_prefix("hist") + "single";
  obs::Histogram& h = obs::histogram(name);
  for (int i = 0; i < 100; ++i) h.observe(3.0);  // bucket (2, 5]

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 100u);
  EXPECT_DOUBLE_EQ(sample->sum, 300.0);
  for (const double q : {sample->p50, sample->p95, sample->p99}) {
    EXPECT_GE(q, 2.0);
    EXPECT_LE(q, 5.0);
  }
}

TEST(Metrics, HistogramQuantilesTrackMixedDistribution) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  // 90 values in (5, 10], 10 values in (100, 200]: the true p50 sits in
  // the low bucket and the true p95/p99 in the high one.
  const std::string name = run_prefix("hist") + "mixed";
  obs::Histogram& h = obs::histogram(name);
  for (int i = 0; i < 90; ++i) h.observe(7.0);
  for (int i = 0; i < 10; ++i) h.observe(150.0);

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 100u);
  EXPECT_DOUBLE_EQ(sample->sum, 90 * 7.0 + 10 * 150.0);
  EXPECT_GE(sample->p50, 5.0);
  EXPECT_LE(sample->p50, 10.0);
  EXPECT_GE(sample->p95, 100.0);
  EXPECT_LE(sample->p95, 200.0);
  EXPECT_GE(sample->p99, 100.0);
  EXPECT_LE(sample->p99, 200.0);
}

TEST(Metrics, HistogramOverflowClampsToTopBoundary) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string name = run_prefix("hist") + "overflow";
  obs::Histogram& h = obs::histogram(name);
  h.observe(1e12);  // far beyond the last finite boundary
  h.observe(1e12);

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 2u);
  EXPECT_EQ(sample->buckets.back(), 2u);
  EXPECT_DOUBLE_EQ(sample->sum, 2e12);
  const double top = obs::histogram_boundaries().back();
  EXPECT_DOUBLE_EQ(sample->p50, top);
  EXPECT_DOUBLE_EQ(sample->p99, top);
}

TEST(Metrics, HistogramMergesAcrossThreads) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const std::string name = run_prefix("hist") + "threads";
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&name] {
      obs::Histogram& h = obs::histogram(name);
      for (int i = 0; i < kPerThread; ++i) h.observe(7.0);
    });
  }
  for (auto& worker : workers) worker.join();

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(sample->sum, kThreads * kPerThread * 7.0);
  EXPECT_GE(sample->p50, 5.0);
  EXPECT_LE(sample->p50, 10.0);
}

TEST(Metrics, ScopedLatencyObservesOnDestruction) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string name = run_prefix("hist") + "scoped";
  obs::Histogram& h = obs::histogram(name);
  {
    const obs::ScopedLatency latency(h);
  }
  const obs::Snapshot snap = obs::snapshot();  // outlives `sample`
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 1u);
}

// ------------------------------------------------------------ rendering

TEST(Metrics, RenderTextListsEveryKind) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string p = run_prefix("render");
  obs::counter(p + "counter").add(7);
  obs::gauge(p + "gauge").set(-3);
  obs::histogram(p + "hist").observe(1.5);

  const std::string text = obs::render_text(obs::snapshot());
  EXPECT_NE(text.find("counter   " + p + "counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("gauge     " + p + "gauge -3\n"), std::string::npos);
  EXPECT_NE(text.find("histogram " + p + "hist count=1 sum=1.5 p50=1.5 p95="),
            std::string::npos)
      << text;
}

TEST(Metrics, RenderJsonParsesAndCarriesValues) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string p = run_prefix("json");
  obs::counter(p + "counter").add(11);
  obs::histogram(p + "hist").observe(3.0);

  const serve::Json doc = serve::parse_json(obs::render_json(obs::snapshot()));
  ASSERT_TRUE(doc.is_object());
  const serve::Json* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const serve::Json* value = counters->find(p + "counter");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->number, "11");

  const serve::Json* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const serve::Json* hist = histograms->find(p + "hist");
  ASSERT_NE(hist, nullptr);
  for (const char* field : {"count", "sum", "p50", "p95", "p99"}) {
    EXPECT_NE(hist->find(field), nullptr) << field;
  }
  const serve::Json* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->array.size(), obs::kHistogramBuckets);
  EXPECT_EQ(buckets->array[2].number, "1");  // 3.0 lands in (2, 5]
}

TEST(Metrics, RenderedSumsReadBackBitForBit) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "GLVA_NO_METRICS build";

  const std::string name = run_prefix("roundtrip") + "hist";
  obs::Histogram& h = obs::histogram(name);
  for (const double v : {0.1, 0.2, 1e7 + 0.123}) h.observe(v);
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* sample = find_histogram(snap, name);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->sum, (0.1 + 0.2) + (1e7 + 0.123));

  const serve::Json doc = serve::parse_json(obs::render_json(snap));
  const std::string json_sum =
      doc.find("histograms")->find(name)->find("sum")->number;
  EXPECT_EQ(std::strtod(json_sum.c_str(), nullptr), sample->sum) << json_sum;

  const std::string text = obs::render_text(snap);
  const std::string key = name + " count=3 sum=";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  const std::size_t begin = at + key.size();
  EXPECT_EQ(text.substr(begin, text.find(' ', begin) - begin), json_sum);
}

// --------------------------------------------------------------- tracer

TEST(Trace, DisabledByDefaultAndSpansAreFree) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    GLVA_SPAN("never.recorded");
  }
  EXPECT_TRUE(obs::drain_trace().empty());
}

TEST(Trace, CapturesNestedAndCrossThreadSpans) {
  static_cast<void>(obs::drain_trace());  // clear any stale events
  obs::trace_begin();
  {
    GLVA_SPAN("outer");
    {
      GLVA_SPAN("inner");
    }
    std::thread worker([] { GLVA_SPAN("worker"); });
    worker.join();
  }
  obs::trace_end();
  EXPECT_FALSE(obs::trace_enabled());

  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 3u);

  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* worker_span = nullptr;
  for (const obs::TraceEvent& event : events) {
    if (std::string(event.name) == "outer") outer = &event;
    if (std::string(event.name) == "inner") inner = &event;
    if (std::string(event.name) == "worker") worker_span = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker_span, nullptr);

  // Parent precedes and contains the child; sort order is (ts asc,
  // duration desc) so "outer" comes first in the drained vector.
  EXPECT_EQ(events.front().name, std::string("outer"));
  EXPECT_LE(outer->ts_ns, inner->ts_ns);
  EXPECT_GE(outer->ts_ns + outer->dur_ns, inner->ts_ns + inner->dur_ns);
  EXPECT_NE(worker_span->tid, outer->tid);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }

  EXPECT_TRUE(obs::drain_trace().empty());  // drain moves everything out
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  static_cast<void>(obs::drain_trace());
  obs::trace_begin();
  {
    GLVA_SPAN("stage.a");
    GLVA_SPAN("stage.b");
  }
  obs::trace_end();
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 2u);

  const serve::Json doc =
      serve::parse_json(obs::render_chrome_trace(events));
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  for (const serve::Json& event : doc.array) {
    ASSERT_TRUE(event.is_object());
    const serve::Json* name = event.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(name->is_string());
    const serve::Json* phase = event.find("ph");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->string, "X");
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const serve::Json* member = event.find(field);
      ASSERT_NE(member, nullptr) << field;
      EXPECT_EQ(member->kind, serve::Json::Kind::kNumber) << field;
    }
  }
}

TEST(Trace, WriteChromeTraceRoundTripsThroughFile) {
  static_cast<void>(obs::drain_trace());
  obs::trace_begin();
  {
    GLVA_SPAN("file.span");
  }
  obs::trace_end();

  const std::string path =
      (std::filesystem::temp_directory_path() / "glva_test_obs_trace.json")
          .string();
  obs::write_chrome_trace(path, obs::drain_trace());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  std::remove(path.c_str());

  const serve::Json doc = serve::parse_json(content.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 1u);
  EXPECT_EQ(doc.array.front().find("name")->string, "file.span");
}

TEST(Trace, CliTraceOutWritesStageSpans) {
  struct Case {
    std::vector<std::string> args;
    std::vector<const char*> spans;  ///< the op's stages, all required
  };
  // 0x0B needs ~4000 tu to settle into the intended logic (exit 0); the
  // check passes at --min-satisfaction 0 whatever the verdicts.
  const std::vector<Case> cases = {
      {{"verify", "0x0B", "--total-time", "4000", "--seed", "7",
        "--no-timings"},
       {"simulate", "analyze"}},
      {{"check", "0x0B", "--property", "G(C->F[0,400]GFP)", "--total-time",
        "4000", "--seed", "7", "--min-satisfaction", "0"},
       {"simulate", "monitor"}},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "glva_test_cli_trace.json")
          .string();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args.front());
    std::vector<std::string> args = c.args;
    args.insert(args.end(), {"--trace-out", path});
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(app::run_cli(args, out, err), 0) << err.str();
    EXPECT_NE(err.str().find("trace written to " + path), std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream content;
    content << in.rdbuf();
    in.close();
    std::remove(path.c_str());

    const serve::Json doc = serve::parse_json(content.str());
    ASSERT_TRUE(doc.is_array());
    std::vector<std::string> names;
    names.reserve(doc.array.size());
    for (const serve::Json& event : doc.array) {
      names.push_back(event.find("name")->string);
    }
    for (const char* expected : c.spans) {
      EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
          << expected;
    }
    EXPECT_FALSE(obs::trace_enabled());  // CLI path turned tracing back off
  }
}

TEST(Trace, CliRejectsMissingTraceOutValue) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_NE(app::run_cli({"version", "--trace-out"}, out, err), 0);
}

// -------------------------------------------------------------- logging

TEST(Log, LevelFiltersAndFormats) {
  std::ostringstream sink;
  util::set_log_sink(&sink);
  const util::LogLevel previous = util::log_level();

  ASSERT_TRUE(util::set_log_level("warn"));
  util::log_info("hidden");
  util::log_warn("visible");
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("warn  visible"), std::string::npos);

  ASSERT_TRUE(util::set_log_level("debug"));
  util::log_debug("now shown");
  EXPECT_NE(sink.str().find("debug now shown"), std::string::npos);

  EXPECT_FALSE(util::set_log_level("loud"));  // unknown name rejected

  util::set_log_level(previous);
  util::set_log_sink(nullptr);
}

}  // namespace
