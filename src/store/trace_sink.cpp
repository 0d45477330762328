#include "store/trace_sink.h"

#include "util/errors.h"

namespace glva::store {

void TraceSink::append_block(std::span<const double> times,
                             std::span<const std::span<const double>> series) {
  // Row-wise reference fallback: reassemble each row and deliver it through
  // append(), so a sink that only implements the row contract still accepts
  // block producers (and defines what the overrides must be identical to).
  for (const std::span<const double> column : series) {
    if (column.size() != times.size()) {
      throw InvalidArgument(
          "TraceSink::append_block: column length differs from time column");
    }
  }
  std::vector<double> row(series.size());
  for (std::size_t k = 0; k < times.size(); ++k) {
    for (std::size_t s = 0; s < series.size(); ++s) row[s] = series[s][k];
    append(times[k], row);
  }
}

void TraceSink::append_hold(std::span<const double> times,
                            const std::vector<double>& values) {
  for (const double time : times) append(time, values);
}

const char* sink_kind_name(SinkKind kind) {
  switch (kind) {
    case SinkKind::kMemory: return "mem";
    case SinkKind::kSpill: return "spill";
    case SinkKind::kDigitize: return "digitize";
  }
  return "?";
}

SinkKind parse_sink_kind(const std::string& name) {
  if (name == "mem" || name == "memory") return SinkKind::kMemory;
  if (name == "spill") return SinkKind::kSpill;
  if (name == "digitize") return SinkKind::kDigitize;
  throw InvalidArgument("unknown trace sink '" + name +
                        "' (expected mem | spill | digitize)");
}

}  // namespace glva::store
