// Metrics substrate: labeled counters, gauges, and log2-bucketed latency
// histograms behind one process-wide registry.
//
// Design constraints (this sits on the guest I/O hot path):
//   - A metric handle is resolved ONCE (registry lookup under a mutex) and
//     then updated with relaxed atomics — an increment is a single
//     fetch_add, a histogram record is three fetch_adds plus a CAS max.
//     Handles are stable for the registry's lifetime (node-owning map).
//   - Wall-clock reads are the expensive part of latency tracking, so they
//     are globally gated: ScopedTimer and every manual timing site check
//     timing_enabled() (one relaxed atomic load) and skip the clock reads
//     entirely when sampling is off — the instrumented hot path then costs
//     a predicted branch, nothing more.
//   - Histograms bucket by log2 (bucket i holds values of bit-width i), so
//     recording needs no search and 65 buckets cover the full uint64 range.
//     Percentile accessors (p50/p90/p99) resolve to the bucket upper edge,
//     clamped to the true observed max — conservative for latencies.
//
// Exporters: Prometheus-style text exposition and a JSON snapshot (parsed
// back by obs::json_parse in tests and the dashboard's self-check).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sedspec::obs {

/// Monotonic nanoseconds on the shared process timebase (common/log.h's
/// monotonic_ns): log lines, metric timings, and trace events all correlate.
[[nodiscard]] uint64_t now_ns();

namespace detail {
/// Storage for the process-wide sampling switch. Exposed so the gate below
/// inlines to one relaxed load — the gate sits on the per-I/O hot path,
/// where an out-of-line call is measurable. Mutate only via
/// set_timing_enabled().
extern std::atomic<bool> g_timing_enabled;
}  // namespace detail

/// Process-wide latency-sampling switch (default off). When off, timing
/// probes skip their clock reads; counters and events are unaffected.
[[nodiscard]] inline bool timing_enabled() {
  return detail::g_timing_enabled.load(std::memory_order_relaxed);
}
void set_timing_enabled(bool enabled);

class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  /// Bucket i counts values whose bit-width is i: bucket 0 holds 0, bucket
  /// i (i >= 1) holds [2^(i-1), 2^i - 1]. 65 buckets cover uint64.
  static constexpr size_t kBuckets = 65;

  void record(uint64_t v);

  [[nodiscard]] uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;

  /// Value at quantile q in [0, 1]: the upper edge of the bucket where the
  /// cumulative count crosses ceil(q * count), clamped to the observed max
  /// (so percentiles never exceed a value that actually occurred). Returns
  /// 0 for an empty histogram.
  [[nodiscard]] uint64_t percentile(double q) const;
  [[nodiscard]] uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] uint64_t p90() const { return percentile(0.90); }
  [[nodiscard]] uint64_t p99() const { return percentile(0.99); }
  [[nodiscard]] uint64_t p999() const { return percentile(0.999); }

  [[nodiscard]] uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Sums `other`'s buckets/count/sum into this histogram and raises max.
  /// Used to merge per-shard histograms on demand (fleet aggregation);
  /// concurrent record() on either side is race-free but the merged view
  /// is then only approximately a point-in-time snapshot.
  void merge(const Histogram& other);

  [[nodiscard]] static size_t bucket_of(uint64_t v);
  /// Largest value bucket i can hold (2^i - 1; saturates at UINT64_MAX).
  [[nodiscard]] static uint64_t bucket_upper(size_t i);

  /// Point-in-time copy of the full bucket state (relaxed loads). The
  /// time-series collector deltas two of these to recover per-window
  /// quantiles from a cumulative histogram.
  struct State {
    uint64_t buckets[kBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
  };
  [[nodiscard]] State state() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Formats a label set as `k1="v1",k2="v2"` — the canonical label-string
/// form the registry keys on (and Prometheus exposition uses verbatim).
/// Label VALUES are escaped per the exposition format (`\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`), so the canonical string is directly
/// emittable and a value can safely carry any byte.
[[nodiscard]] std::string label(
    std::initializer_list<std::pair<std::string_view, std::string_view>> kv);

/// Thread-safety (audited for the concurrent enforcement layer): lookup-
/// or-create and the exporters serialize on one mutex; returned handles
/// are node-stable and every handle mutation is a relaxed atomic, so any
/// number of shard threads may update metrics concurrently with an
/// exporter snapshot.
///
/// Invariant: a registered series is never erased. Its map key is a
/// node-stable, immutable std::string for the registry's lifetime, which
/// is what lets Frozen point at keys instead of copying them.
class MetricsRegistry {
 public:
  /// Lookup-or-create. The returned reference is stable until the registry
  /// is destroyed; resolve once and keep the handle on hot paths.
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {});

  /// Lookup-only (nullptr when the metric was never registered).
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            std::string_view labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name,
                                        std::string_view labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      std::string_view name, std::string_view labels = {}) const;

  /// Registers help text for a metric family, emitted as `# HELP` in the
  /// Prometheus exposition. Idempotent; last writer wins.
  void set_help(std::string_view name, std::string_view help);

  /// Point-in-time copy of every registered series (one lock, relaxed
  /// value loads). This is the time-series collector's input: stable
  /// (name, labels) identity plus a value copy it can delta against the
  /// previous sample.
  struct Snapshot {
    struct CounterEntry {
      std::string name, labels;
      uint64_t value = 0;
    };
    struct GaugeEntry {
      std::string name, labels;
      int64_t value = 0;
    };
    struct HistogramEntry {
      std::string name, labels;
      Histogram::State state;
    };
    std::vector<CounterEntry> counters;
    std::vector<GaugeEntry> gauges;
    std::vector<HistogramEntry> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Values-only point-in-time copy of every series (one lock, relaxed
  /// value loads): the cheap capture behind flight dumps, rendered later.
  /// Entries point at the registry's never-erased map keys (`name{labels}`)
  /// instead of copying them, so a Frozen is valid while the registry
  /// lives. Histograms keep only the values the JSON export shows.
  struct Frozen {
    struct CounterValue {
      const std::string* key = nullptr;
      uint64_t value = 0;
    };
    struct GaugeValue {
      const std::string* key = nullptr;
      int64_t value = 0;
    };
    struct HistogramValue {
      const std::string* key = nullptr;
      uint64_t count = 0, sum = 0, max = 0, p50 = 0, p90 = 0, p99 = 0;
    };
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /// The JSON document to_json() below describes.
    [[nodiscard]] std::string to_json() const;
  };
  /// Overwrites `out`, reusing its storage: refreezing into the same
  /// Frozen allocates only when series were registered since.
  void freeze(Frozen& out) const;

  /// Prometheus text exposition: `sedspec_<name>{labels} value` lines with
  /// `# HELP`/`# TYPE` headers emitted once per metric family (all of a
  /// family's samples are contiguous even when several labeled series
  /// exist); histograms export quantile/count/sum series as one summary
  /// family plus a separate `<name>_max` gauge family.
  [[nodiscard]] std::string to_prometheus() const;

  /// JSON snapshot:
  ///   {"counters":[{"name","labels","value"}...],
  ///    "gauges":[...],
  ///    "histograms":[{"name","labels","count","sum","max",
  ///                   "p50","p90","p99"}...]}
  /// Rendered from a freeze(), the one JSON path for registry values.
  [[nodiscard]] std::string to_json() const;

 private:
  // Key = name + "{" + labels + "}": one flat, deterministically sorted
  // namespace for exporters.
  template <typename T>
  using Family = std::map<std::string, std::unique_ptr<T>>;

  [[nodiscard]] static std::string key_of(std::string_view name,
                                          std::string_view labels);

  mutable std::mutex mu_;
  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<Histogram> histograms_;
  std::map<std::string, std::string> help_;  // by family name
};

/// The process-default registry every built-in instrumentation site
/// publishes into.
[[nodiscard]] MetricsRegistry& metrics();

/// RAII latency probe: records elapsed ns into a histogram at scope exit.
/// When timing is disabled (or `hist` is null) the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(timing_enabled() ? hist : nullptr),
        start_(hist_ != nullptr ? now_ns() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->record(now_ns() - start_);
    }
  }

 private:
  Histogram* hist_;
  uint64_t start_;
};

}  // namespace sedspec::obs
