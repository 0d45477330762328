#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>

namespace glva::obs {
namespace {

// 1-2-5 ladder: wide enough that one shared shape covers microsecond
// latencies (sub-us to ~8 min) and millisecond ones alike.
constexpr std::array<double, kHistogramBuckets - 1> kBoundaries = [] {
  std::array<double, kHistogramBuckets - 1> b{};
  double decade = 1.0;
  for (std::size_t i = 0; i < b.size(); i += 3) {
    b[i] = decade;
    b[i + 1] = 2 * decade;
    b[i + 2] = 5 * decade;
    decade *= 10.0;
  }
  return b;
}();
static_assert(kBoundaries.back() == 5e8);

// Shortest decimal that reads back as the same double.
std::string format_number(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<double>& histogram_boundaries() {
  static const std::vector<double> boundaries(kBoundaries.begin(),
                                              kBoundaries.end());
  return boundaries;
}

#ifndef GLVA_NO_METRICS

namespace {

// Bucket-interpolated quantile over bucket counts: the estimate is always
// inside the bucket that contains the requested rank, which is the bound
// test_obs pins.
double quantile_estimate(const std::vector<std::uint64_t>& buckets,
                         std::uint64_t count, double q) {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : kBoundaries[i - 1];
      // The overflow bucket has no upper edge; clamp to its lower edge so
      // the estimate stays a lower bound instead of inventing a tail.
      const double upper =
          i < kBoundaries.size() ? kBoundaries[i] : kBoundaries.back();
      const double frac =
          std::min(1.0, std::max(0.0, (rank - static_cast<double>(cum)) /
                                          static_cast<double>(in_bucket)));
      return lower + (upper - lower) * frac;
    }
    cum += in_bucket;
  }
  return kBoundaries.back();
}

}  // namespace

class Registry {
 public:
  Counter& counter(std::string_view name) { return intern(counters_, name); }
  Gauge& gauge(std::string_view name) { return intern(gauges_, name); }
  Histogram& histogram(std::string_view name) {
    return intern(histograms_, name);
  }

  Snapshot snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back(
          CounterSample{name, c.value_.load(std::memory_order_relaxed)});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.push_back(
          GaugeSample{name, g.value_.load(std::memory_order_relaxed)});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramSample s;
      s.name = name;
      s.buckets.reserve(kHistogramBuckets);
      for (const auto& bucket : h.buckets_) {
        s.buckets.push_back(bucket.load(std::memory_order_relaxed));
        s.count += s.buckets.back();
      }
      s.sum = h.sum_.load(std::memory_order_relaxed);
      s.p50 = quantile_estimate(s.buckets, s.count, 0.50);
      s.p95 = quantile_estimate(s.buckets, s.count, 0.95);
      s.p99 = quantile_estimate(s.buckets, s.count, 0.99);
      snap.histograms.push_back(std::move(s));
    }
    return snap;
  }

 private:
  // A map node never moves, so an interned handle stays valid, and the
  // maps iterate in name order.
  template <typename Instrument>
  using Instruments = std::map<std::string, Instrument, std::less<>>;

  template <typename Instrument>
  Instrument& intern(Instruments<Instrument>& instruments,
                     std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instruments.find(name);
    if (it == instruments.end()) {
      it = instruments.try_emplace(std::string(name)).first;
    }
    return it->second;
  }

  std::mutex mutex_;
  Instruments<Counter> counters_;
  Instruments<Gauge> gauges_;
  Instruments<Histogram> histograms_;
};

namespace {

// Leaked on purpose: daemon connection threads, which nothing joins, may
// write metrics during process teardown, after function-local statics
// would have been destroyed.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

}  // namespace

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(kBoundaries.begin(), kBoundaries.end(), v);
  buckets_[static_cast<std::size_t>(it - kBoundaries.begin())].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) { return registry().counter(name); }

Gauge& gauge(std::string_view name) { return registry().gauge(name); }

Histogram& histogram(std::string_view name) {
  return registry().histogram(name);
}

Snapshot snapshot() { return registry().snapshot(); }

#endif  // !GLVA_NO_METRICS

std::string render_text(const Snapshot& snap) {
  std::string out;
  for (const CounterSample& c : snap.counters) {
    out += "counter   ";
    out += c.name;
    out += " ";
    out += std::to_string(c.value);
    out += "\n";
  }
  for (const GaugeSample& g : snap.gauges) {
    out += "gauge     ";
    out += g.name;
    out += " ";
    out += std::to_string(g.value);
    out += "\n";
  }
  for (const HistogramSample& h : snap.histograms) {
    out += "histogram ";
    out += h.name;
    out += " count=";
    out += std::to_string(h.count);
    out += " sum=";
    out += format_number(h.sum);
    out += " p50=";
    out += format_number(h.p50);
    out += " p95=";
    out += format_number(h.p95);
    out += " p99=";
    out += format_number(h.p99);
    out += "\n";
  }
  return out;
}

std::string render_json(const Snapshot& snap) {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(c.name);
    out += "\":";
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : snap.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(g.name);
    out += "\":";
    out += std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(h.name);
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += format_number(h.sum);
    out += ",\"p50\":";
    out += format_number(h.p50);
    out += ",\"p95\":";
    out += format_number(h.p95);
    out += ",\"p99\":";
    out += format_number(h.p99);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::uint64_t b : h.buckets) {
      if (!first_bucket) out += ",";
      first_bucket = false;
      out += std::to_string(b);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace glva::obs
