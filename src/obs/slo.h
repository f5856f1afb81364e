// SLO engine: declarative objectives over TimeSeries windows with
// multi-window burn-rate alerting.
//
// An SloSpec names one metric condition evaluated per window — a windowed
// histogram quantile bound (`check_latency_ns p99 < 500us`), a counter
// rate bound (`report_queue_dropped_total rate == 0`), or a gauge growth
// bound (`rss_bytes growth < X/window`). Each window either meets or
// violates the condition; a single bad window is weather, not an incident.
//
// Breach detection follows the SRE multi-window burn-rate rule: the
// violating-window fraction over a short `fast_windows` horizon AND a long
// `slow_windows` horizon must BOTH exceed their burn thresholds (fraction
// relative to the error `budget`). The fast window makes alerts prompt;
// the slow window keeps a transient spike from paging. A breach is
// recorded as an EventType::kSloBreach trace event and counted; the
// caller that ticks the engine reads the verdicts and acts on them
// (bench_soak freezes a flight bundle per breach). Nothing in the control
// plane consumes breaches: rollout verdicts come from the enforcement
// run's own counters (rollout.h).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/timeseries.h"

namespace sedspec::obs {

enum class SloKind : uint8_t {
  /// Windowed quantile of a histogram must stay <= threshold.
  kHistogramQuantileMax = 0,
  /// Per-window counter rate (delta/sec) must stay <= threshold.
  kCounterRateMax,
  /// Gauge growth across one window must stay <= threshold.
  kGaugeGrowthMax,
};

struct SloSpec {
  std::string name;    // objective name (trace detail, verdict key)
  SloKind kind = SloKind::kHistogramQuantileMax;
  std::string metric;  // registry metric family name
  /// Canonical label string selecting one series; empty = merge ALL series
  /// of the family (histograms: bucket-merge; counters and gauges: delta
  /// sum).
  std::string labels;
  double quantile = 0.99;  // kHistogramQuantileMax only
  double threshold = 0.0;  // compare: observed <= threshold is healthy
  /// Burn-rate horizons, in windows. fast <= slow.
  size_t fast_windows = 1;
  size_t slow_windows = 12;
  /// Error budget: tolerated violating-window fraction. burn = fraction /
  /// budget; a burn of 1.0 is exactly on budget.
  double budget = 0.01;
  double fast_burn = 1.0;  // breach when fast burn >= this ...
  double slow_burn = 1.0;  // ... AND slow burn >= this
};

struct SloVerdict {
  std::string slo;         // SloSpec::name
  double value = 0.0;      // observed value this window
  double threshold = 0.0;
  bool violating = false;  // this window alone exceeded the threshold
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool breach = false;     // multi-window burn-rate alert fired
  std::string detail;      // human-readable "<metric> <field> = <value>"
};

class SloEngine {
 public:
  void add(SloSpec spec);
  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }

  /// Evaluates every SLO against one closed window. Emits a kSloBreach
  /// trace event (to the global tracer, when installed) per breaching SLO.
  /// Single-threaded, same collector thread as TimeSeries::sample.
  std::vector<SloVerdict> evaluate(const WindowSample& w);

  /// Total breaches across all evaluations (what the soak gate reads).
  [[nodiscard]] uint64_t breaches() const { return breaches_; }
  /// Total violating windows (any SLO) across all evaluations.
  [[nodiscard]] uint64_t violating_windows() const {
    return violating_windows_;
  }

 private:
  struct History {
    std::deque<bool> violating;  // most recent slow_windows flags
  };

  [[nodiscard]] static double observe(const SloSpec& spec,
                                      const WindowSample& w,
                                      std::string* detail);

  std::vector<SloSpec> specs_;
  std::vector<History> history_;  // parallel to specs_
  uint64_t breaches_ = 0;
  uint64_t violating_windows_ = 0;
};

}  // namespace sedspec::obs
