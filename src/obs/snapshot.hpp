// hi-opt: observability — point-in-time metric snapshots.
//
// A Snapshot is a plain value: the names and values of every instrument
// of a MetricsRegistry at one moment.  Explorers attach a *delta*
// snapshot (end minus start) to each ExplorationResult so one shared
// registry can serve many runs; benches serialize snapshots as JSON so
// the perf trajectory gains counter baselines.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace hi::obs {

inline constexpr int kHistogramBuckets = 32;

/// Aggregate view of one Histogram.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Approximate quantile (q in [0,1]) from the power-of-two buckets:
  /// accurate to within one bucket width (a factor of 2).
  [[nodiscard]] double approx_quantile(double q) const;
};

/// See file comment.
struct Snapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramSummary, std::less<>> histograms;

  /// Value of a counter, 0 when absent (never-recorded == zero).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Value of a gauge, 0.0 when absent.
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Histogram summary, or nullptr when absent.
  [[nodiscard]] const HistogramSummary* histogram(std::string_view name) const;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// The change since `base` (taken from the same registry earlier):
  /// counters and histogram counts/sums/buckets subtract; gauges and
  /// histogram min/max keep this snapshot's value (extremes and levels
  /// are not differentiable).  Instruments absent from `base` pass
  /// through whole.
  [[nodiscard]] Snapshot delta_since(const Snapshot& base) const;

  /// Serializes as one JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..,
  ///                            "mean":..}, ...}}
  /// Doubles print shortest round-trip, inf/nan as null (hi::JsonWriter).
  /// No trailing newline.
  void write_json(std::ostream& os) const;
};

}  // namespace hi::obs
