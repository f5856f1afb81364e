// Time-series collection: windowed deltas over the cumulative
// MetricsRegistry.
//
// The registry's counters and histograms are monotone cumulative — good
// for cheap hot-path updates, useless for answering "what was the p99
// *during the last 100 ms*". TimeSeries closes that gap: the caller ticks
// sample(now_ns) at whatever cadence it likes (the collector never reads a
// clock itself — intervals are caller-driven, so tests and the soak
// harness replay deterministic timelines), and each tick deltas the
// current registry freeze() against the previous one into a WindowSample:
//   - counters  -> per-window delta + rate (delta / window seconds)
//   - gauges    -> point-in-time value + delta vs previous window
//   - histograms-> the window's own Histogram::State (delta_since), from
//                  which true windowed p50/p90/p99/p99.9 are resolved by
//                  the one Histogram::State quantile rule
//
// Memory is bounded for arbitrarily long runs: only a ring of the most
// recent `window_capacity` WindowSamples is kept.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sedspec::obs {

struct TimeSeriesConfig {
  /// Ring depth: how many recent windows stay addressable.
  size_t window_capacity = 64;
};

/// Per-window view of one cumulative histogram series.
struct WindowHistogram {
  std::string name;
  std::string labels;
  /// The window's bucket deltas, event count and sum; `state.max` is the
  /// tightest bound on the window max the deltas allow.
  Histogram::State state;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

struct WindowCounter {
  std::string name;
  std::string labels;
  uint64_t delta = 0;  // increments during this window
  double rate = 0.0;   // delta / window length in seconds (0 if zero-length)
};

struct WindowGauge {
  std::string name;
  std::string labels;
  int64_t value = 0;  // value at window end
  int64_t delta = 0;  // value change across the window (growth detection)
};

struct WindowSample {
  uint64_t index = 0;       // 0-based window number since collector start
  uint64_t t_start_ns = 0;  // previous sample's timestamp
  uint64_t t_end_ns = 0;    // this sample's timestamp
  std::vector<WindowCounter> counters;
  std::vector<WindowGauge> gauges;
  std::vector<WindowHistogram> histograms;

  [[nodiscard]] const WindowCounter* find_counter(
      std::string_view name, std::string_view labels) const;
  [[nodiscard]] const WindowGauge* find_gauge(std::string_view name,
                                              std::string_view labels) const;
  [[nodiscard]] const WindowHistogram* find_histogram(
      std::string_view name, std::string_view labels) const;

  /// Sums every counter series named `name` (any labels) — the fleet-wide
  /// delta for per-shard-labeled counters.
  [[nodiscard]] uint64_t counter_delta_sum(std::string_view name) const;
  /// Merges (Histogram::State::merge) every histogram series named `name`
  /// into one WindowHistogram with recomputed quantiles. Returns nullopt
  /// when no series of that name was in this window's capture.
  [[nodiscard]] std::optional<WindowHistogram> merged_histogram(
      std::string_view name) const;
};

class TimeSeries {
 public:
  explicit TimeSeries(const MetricsRegistry* registry,
                      TimeSeriesConfig cfg = {});

  /// Freezes the registry at caller-supplied time `now_ns`, deltas it
  /// against the previous capture, and appends the WindowSample to the
  /// ring (evicting the oldest beyond capacity). Returns the freshly
  /// closed window.
  /// Single-threaded by design: one collector thread ticks; shard threads
  /// only touch the registry.
  const WindowSample& sample(uint64_t now_ns);

  [[nodiscard]] uint64_t total_windows() const { return next_index_; }
  /// Windows currently retained (<= window_capacity).
  [[nodiscard]] size_t size() const { return ring_.size(); }
  /// Retained window i, oldest-first (0 = oldest retained).
  [[nodiscard]] const WindowSample& window(size_t i) const { return ring_[i]; }
  [[nodiscard]] const WindowSample& latest() const { return ring_.back(); }

  /// Full export: {"total_windows":N, "windows":[...]} — each retained
  /// window carries timestamps plus its counter/gauge/histogram views
  /// (histogram buckets are elided; quantiles + count/sum are kept).
  [[nodiscard]] std::string to_json() const;

 private:
  const MetricsRegistry* registry_;
  TimeSeriesConfig cfg_;
  bool have_base_ = false;
  uint64_t base_ns_ = 0;
  // The previous capture and the buffer for the current one, swapped
  // after every sample so refreezing reuses their storage.
  MetricsRegistry::Frozen base_;
  MetricsRegistry::Frozen cur_;
  uint64_t next_index_ = 0;
  std::deque<WindowSample> ring_;
};

}  // namespace sedspec::obs
