#ifndef GLVA_OBS_TRACE_H
#define GLVA_OBS_TRACE_H

// Scoped stage tracer emitting Chrome about:tracing "trace event" JSON
// (docs/OBSERVABILITY.md). Usage:
//
//   void run_stage() {
//     GLVA_SPAN("simulate");
//     ...
//   }
//
// Spans are RAII scopes appended on destruction to one process-wide span
// log under its mutex. Spans mark stage boundaries (a few per replicate),
// so that lock is rarely contended. Each thread's tid is its rank among
// the threads that finished a span. Tracing is off by default: a
// disabled GLVA_SPAN costs one relaxed atomic load.
// trace_begin()/trace_end() nest; drain_trace() moves out everything
// logged so far. Timestamps are nanoseconds from a process-stable
// steady-clock epoch, emitted as fractional microseconds in the JSON.
//
// Unlike the metrics registry, the tracer has no GLVA_NO_METRICS variant:
// it is always compiled and purely runtime-gated.

#include <cstdint>
#include <string>
#include <vector>

namespace glva::obs {

struct TraceEvent {
  const char* name;        // static string from the GLVA_SPAN literal
  std::uint64_t ts_ns;     // start, nanoseconds since trace epoch
  std::uint64_t dur_ns;    // duration, nanoseconds
  std::uint32_t tid;       // small per-thread ordinal (1 = first thread)
};

// Refcounted enable switch: nested begin/end pairs keep tracing on until
// the outermost end.
void trace_begin();
void trace_end();
bool trace_enabled() noexcept;

// Moves out every logged event (all threads), sorted by (ts, longest
// duration first) so parents precede their children.
std::vector<TraceEvent> drain_trace();

// Chrome trace-event JSON array of complete ("ph":"X") events.
std::string render_chrome_trace(const std::vector<TraceEvent>& events);

// Renders and writes events to path; throws util::Error on I/O failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (trace_enabled()) start(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (active_) finish();
  }

 private:
  void start(const char* name) noexcept;
  void finish() noexcept;

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

#define GLVA_SPAN_CONCAT2(a, b) a##b
#define GLVA_SPAN_CONCAT(a, b) GLVA_SPAN_CONCAT2(a, b)
#define GLVA_SPAN(name) \
  ::glva::obs::Span GLVA_SPAN_CONCAT(glva_span_, __LINE__)(name)

}  // namespace glva::obs

#endif  // GLVA_OBS_TRACE_H
