#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/errors.h"

namespace glva::obs {
namespace {

std::uint64_t now_ns() {
  // Epoch fixed at first use so timestamps stay monotonic across
  // repeated trace_begin()/drain_trace() cycles in one process.
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// Every finished span from every thread, in finishing order. Leaked like
// the metrics registry: daemon connection threads, which nothing joins,
// may finish spans during process teardown.
struct SpanLog {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t threads = 0;  // tids handed out so far
};

SpanLog& span_log() {
  static SpanLog* log = new SpanLog();
  return *log;
}

std::atomic<int> g_trace_refcount{0};
std::atomic<bool> g_trace_enabled{false};

}  // namespace

void trace_begin() {
  g_trace_refcount.fetch_add(1, std::memory_order_relaxed);
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_end() {
  if (g_trace_refcount.fetch_sub(1, std::memory_order_relaxed) == 1) {
    g_trace_enabled.store(false, std::memory_order_relaxed);
  }
}

bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> drain_trace() {
  std::vector<TraceEvent> out;
  {
    SpanLog& log = span_log();
    std::lock_guard<std::mutex> lock(log.mutex);
    out.swap(log.events);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

void Span::start(const char* name) noexcept {
  name_ = name;
  start_ns_ = now_ns();
  active_ = true;
}

void Span::finish() noexcept {
  const std::uint64_t end_ns = now_ns();
  // A thread's tid is its rank among the threads that finished a span.
  thread_local std::uint32_t tid = 0;
  SpanLog& log = span_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (tid == 0) tid = ++log.threads;
  log.events.push_back(TraceEvent{name_, start_ns_, end_ns - start_ns_, tid});
}

std::string render_chrome_trace(const std::vector<TraceEvent>& events) {
  // Complete events ("ph":"X") with fractional-microsecond timestamps;
  // chrome://tracing and https://ui.perfetto.dev load this directly.
  std::string out = "[";
  bool first = true;
  char buf[256];
  for (const TraceEvent& e : events) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u}",
                  e.name, static_cast<double>(e.ts_ns) / 1000.0,
                  static_cast<double>(e.dur_ns) / 1000.0, e.tid);
    out += buf;
  }
  out += "]\n";
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw Error("cannot open trace output file: " + path);
  }
  const std::string body = render_chrome_trace(events);
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.flush();
  if (!file) {
    throw Error("failed writing trace output file: " + path);
  }
}

}  // namespace glva::obs
