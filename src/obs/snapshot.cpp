#include "obs/snapshot.hpp"

#include <cmath>
#include <ostream>

#include "common/json_string.hpp"

namespace hi::obs {

double HistogramSummary::approx_quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen > rank) {
      // Upper edge of bucket i: 2^(i-19); clamp to observed extremes.
      const double edge = std::ldexp(1.0, i - 19);
      return edge < min ? min : (edge > max ? max : edge);
    }
  }
  return max;
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

double Snapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(name);
  return it != gauges.end() ? it->second : 0.0;
}

const HistogramSummary* Snapshot::histogram(std::string_view name) const {
  const auto it = histograms.find(name);
  return it != histograms.end() ? &it->second : nullptr;
}

Snapshot Snapshot::delta_since(const Snapshot& base) const {
  Snapshot d = *this;
  for (auto& [name, v] : d.counters) {
    const auto it = base.counters.find(name);
    if (it != base.counters.end()) {
      v -= it->second <= v ? it->second : v;  // clamp at 0 defensively
    }
  }
  for (auto& [name, h] : d.histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      continue;
    }
    const HistogramSummary& b = it->second;
    h.count -= b.count <= h.count ? b.count : h.count;
    h.sum -= b.sum;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= b.buckets[i] <= h.buckets[i] ? b.buckets[i]
                                                   : h.buckets[i];
    }
  }
  // Gauges (levels / high-water marks) keep their current value.
  return d;
}

void Snapshot::write_json(std::ostream& os) const {
  JsonWriter w;
  w.object(JsonWriter::kInline).key("counters").object(JsonWriter::kInline);
  for (const auto& [name, v] : counters) w.field(name, v);
  w.end().key("gauges").object(JsonWriter::kInline);
  for (const auto& [name, v] : gauges) w.field(name, v);
  w.end().key("histograms").object(JsonWriter::kInline);
  for (const auto& [name, h] : histograms) {
    w.key(name).object(JsonWriter::kInline).field("count", h.count);
    w.field("sum", h.sum).field("min", h.min).field("max", h.max);
    w.field("mean", h.mean()).end();
  }
  os << w.end().end().take();
}

}  // namespace hi::obs
