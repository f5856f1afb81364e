// Shared declarations of the SEDSpec benchmark (see README.md).
//
// The benchmark drives the repository's public entry points (guest, vdev,
// checker, checker/engine, sedspec/pipeline, sedspec/enforcement, spec,
// obs) and changes nothing in them. Every timing it reports is taken in
// these files; the program under test is never instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/checker.h"
#include "program/arena.h"
#include "spec/es_cfg.h"

namespace sedbench {

using namespace sedspec;

inline constexpr size_t kDevices = 5;

/// The five patched evaluation devices, in guest::workload_names() order.
[[nodiscard]] const std::vector<std::string>& device_names();

[[nodiscard]] inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- statistics (stats.cc) ----------------------------------------------

/// Percentile by linear interpolation between closest ranks (q in [0, 1]).
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// num[i] / den[i] for every pair with a positive denominator.
[[nodiscard]] std::vector<double> paired_ratios(const std::vector<double>& num,
                                                const std::vector<double>& den);

/// A uniform sample of at most `capacity` values from a stream (reservoir
/// sampling with a fixed seed), so per-operation samples take bounded
/// memory however many operations a run completes.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void add(double v);
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t state_;
  std::vector<double> values_;
};

/// Checked / unchecked host time per operation, kept in bounded reservoirs
/// (so the samples do not show up in peak_rss_mb): one over all
/// operations, and one per device and time segment of the timed phase.
///
/// p99() is robust in two ways. The tail of the whole mix jumps between
/// devices' values as their shares move, so each device's percentile is
/// taken on its own population and the median over devices reported. A
/// burst of host contention inflates the tail of the seconds it lasts, so
/// each device's percentile is the median over the kSegments consecutive
/// segments of the phase.
class Slowdowns {
 public:
  static constexpr size_t kSegments = 8;

  Slowdowns();
  void add(size_t dev, size_t segment, double ratio);
  [[nodiscard]] double p50() const;
  [[nodiscard]] double p99() const;

 private:
  Reservoir all_;
  std::vector<Reservoir> cells_;  // [dev * kSegments + segment]
};

/// The segment of [start, end) that `t` falls in.
[[nodiscard]] size_t segment_of(uint64_t start, uint64_t end, uint64_t t);

// --- in-memory spans (stats.cc) -----------------------------------------

inline constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t op = 0;  // operation the span belongs to
  uint32_t parent = kNoSpan;
  uint32_t name = 0;
};

/// Spans of one thread, kept in memory until the run ends. A span opened
/// with begin() is the parent of every span begun or added before its
/// end(); add() records a finished leaf under the innermost open span.
class SpanLog {
 public:
  explicit SpanLog(size_t soft_capacity);

  /// Interns a span name; resolve names before the timed loop.
  uint32_t name_id(std::string_view name);
  [[nodiscard]] const std::string& name(uint32_t id) const {
    return names_[id];
  }

  uint32_t begin(uint32_t name, uint64_t op) {
    return begin_at(name, op, now_ns());
  }
  /// Opens a span at a caller-supplied time.
  uint32_t begin_at(uint32_t name, uint64_t op, uint64_t t);
  void end(uint32_t span) { end_at(span, now_ns()); }
  /// Closes `span` at a caller-supplied time (spans ended by a later hook).
  void end_at(uint32_t span, uint64_t t);
  void add(uint32_t name, uint64_t op, uint64_t start, uint64_t end);

  /// True once the soft capacity is reached; callers stop opening new
  /// traced operations then, so no operation is cut in half.
  [[nodiscard]] bool full() const { return spans_.size() >= soft_capacity_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t soft_capacity_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  std::vector<std::string> names_;
};

/// Per span name: how many spans, their summed duration and summed self
/// time (duration minus the part covered by child spans).
struct LayerTime {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> durations_ns;

};
using LayerTimes = std::map<std::string, LayerTime>;

/// Folds one log's spans into `out` (several logs may feed one map).
void add_self_times(const SpanLog& log, LayerTimes& out);

/// Writes the trace of one workload: `<prefix>.spans.csv` (the first
/// spans of every log: log,id,parent,name,op,start_ns,end_ns) and
/// `<prefix>.layers.json` (count, total and self time per span name).
void write_trace(const std::vector<const SpanLog*>& logs,
                 const LayerTimes& layers, const std::string& prefix);

/// Self-tests of the percentile, paired-ratio, reservoir, tail-estimator
/// and self-time code. Returns an empty string on success, else what
/// failed.
[[nodiscard]] std::string run_selftests();

// --- results ------------------------------------------------------------

/// Attempted/failed bookkeeping. Every operation and every validation
/// counts as attempted; a failed one also lands in `errors`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void ops(uint64_t n, uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  void check(bool ok, const std::string& what);
  void merge(const Tally& other);
};

/// Metrics in emission order, rendered as the benchmark's result line.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json(bool correct, uint64_t attempted,
                                 uint64_t failed) const;
  /// Names of values that were not finite (a benchmark bug).
  [[nodiscard]] const std::vector<std::string>& bad() const { return bad_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> bad_;
};

// --- shared workload plumbing -------------------------------------------

/// Timing of one setup: the whole thing plus the per-device phases the
/// single-VM rigs time individually.
struct SetupTiming {
  double total_s = 0;
  std::array<double, kDevices> collect_ms{};
  std::array<double, kDevices> construct_ms{};
};

/// One recorded access stream for the bare-engine replay: the checker's
/// shadow and command latch when recording began, then every access.
struct Recording {
  std::unique_ptr<StateArena> initial;
  std::optional<uint64_t> active_cmd;
  std::vector<IoAccess> accesses;
};

/// Per-device figures of the bare-engine ledger (ledger.cc).
struct EngineLedger {
  double check_ns = 0;        // bytecode engine, per check
  double ns_per_step = 0;
  double bytecode_speedup = 0;
  double compile_us = 0;
  bool differential_ok = true;
  std::string differential_detail;
};

/// Replays `rec` through both engines, interleaved, for about `seconds`,
/// and times make_engine for the bytecode backend.
[[nodiscard]] EngineLedger engine_ledger(const spec::EsCfg& cfg,
                                         Device& device, const Recording& rec,
                                         double seconds);

}  // namespace sedbench
