// Flight recorder: always-on per-shard event rings frozen into
// self-contained incident bundles.
//
// Every shard owns a small fixed-cost EventTracer ring (the same lock-free
// slot machinery the global tracer uses) that the checker records into on
// every round — a rolling "last K things this shard did". When something
// goes wrong (violation, quarantine, watchdog trip, SLO breach), dump()
// freezes that shard's ring into a FlightBundle: the resolved events, the
// registry metrics at freeze time, and a caller-supplied context blob
// (the soak driver injects the current TimeSeries window + SLO verdicts).
// The bundle is self-contained JSON — every incident ships with the 2 ms
// of history that preceded it, answering "what was the checker doing just
// before this?" without a verbose global trace.
//
// Cost model: a checker resolves its ring's EventKeys once when it attaches,
// so recording a round is one keyed EventTracer::record — a clock read and
// a relaxed slot write, with no intern lock, no hash lookup and no
// allocation. dump() runs wherever reports are drained (the service's
// consumer thread, or the guest thread of a single-VM harness), often on
// a warning round a guest keeps running through, so it freezes raw values
// only: it copies the ring's TraceEvent slots and a values-only
// MetricsRegistry::freeze() into one of max_bundles reusable slots
// (used as a ring, oldest overwritten). A warm dump allocates nothing
// unless a context provider is set or metric series were registered since
// the slot was last used. Frozen metrics point at the registry's map keys,
// which is sound because the registry never erases a series; frozen
// events keep interned ids, which the shard rings never drop. The strings
// are resolved and the JSON rendered only when a bundle is read, in
// bundles() and to_json(). Per-(shard, trigger) dumps are deduplicated
// within an epoch (the collector bumps the epoch each window) so a
// violation storm produces one bundle per window, not thousands.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sedspec::obs {

enum class FlightTrigger : uint8_t {
  kViolation = 0,
  kQuarantine,
  kWatchdog,
  kSloBreach,
  kManual,
};

[[nodiscard]] const char* flight_trigger_name(FlightTrigger t);

struct FlightConfig {
  /// Per-shard ring depth (events). Fixed cost per shard.
  size_t shard_ring_capacity = 256;
  /// Retained bundles; beyond this the oldest is evicted.
  size_t max_bundles = 16;
};

/// One frozen incident as readers see it: resolved events + metrics +
/// context, all by value (self-contained — survives the recorder and the
/// rings it came from). Rendered from the raw slot by bundles().
struct FlightBundle {
  uint64_t sequence = 0;  // monotone bundle number
  uint64_t ts_ns = 0;     // freeze time
  FlightTrigger trigger = FlightTrigger::kManual;
  size_t shard = 0;
  uint64_t epoch = 0;     // collector window the incident fell in
  std::string reason;     // trigger-specific detail (device, SLO name, ...)
  /// Shard ring at freeze time, oldest-first, strings resolved.
  struct Event {
    uint64_t ts_ns = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    std::string type;
    std::string name;
    std::string cat;
    std::string detail;
  };
  std::vector<Event> events;
  /// MetricsRegistry::to_json() of the values at freeze time.
  std::string metrics_json;
  /// Caller-supplied window context (JSON object or empty).
  std::string context_json;

  [[nodiscard]] std::string to_json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t shards, FlightConfig cfg = {});

  [[nodiscard]] size_t shards() const { return rings_.size(); }
  /// The ring shard `i`'s checker should record into (attach as
  /// CheckerHooks::local_tracer). Stable for the recorder's lifetime.
  [[nodiscard]] EventTracer& shard_ring(size_t i) { return *rings_[i]; }

  /// Provides the "current window" context embedded in bundles. Called
  /// from whatever thread triggers a dump — must be thread-safe. Expected
  /// to return a JSON object (or empty string for none).
  void set_context_provider(std::function<std::string()> provider);

  /// Bumps the dedup epoch — typically once per collector window. Dumps
  /// for a (shard, trigger) already captured in the current epoch are
  /// suppressed (counted, not recorded).
  void set_epoch(uint64_t epoch);
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Freezes shard `shard`'s ring (plus the default registry's metrics and
  /// the context provider's blob) into a bundle. Returns true when a
  /// bundle was recorded, false when deduplicated.
  bool dump(FlightTrigger trigger, size_t shard, std::string_view reason);

  [[nodiscard]] uint64_t dumps() const;
  [[nodiscard]] uint64_t suppressed() const;
  /// The retained bundles, oldest-first, resolved and rendered now.
  [[nodiscard]] std::vector<FlightBundle> bundles() const;
  [[nodiscard]] std::string to_json() const;

 private:
  /// One retained bundle as raw values: ring slots and metric values are
  /// copied, not resolved or rendered. Reused when the slot ring wraps.
  struct Slot {
    uint64_t sequence = 0;
    uint64_t ts_ns = 0;
    FlightTrigger trigger = FlightTrigger::kManual;
    size_t shard = 0;
    uint64_t epoch = 0;
    std::string reason;
    std::vector<TraceEvent> events;
    MetricsRegistry::Frozen metrics;
    std::string context_json;
  };
  [[nodiscard]] FlightBundle render(const Slot& slot) const;

  FlightConfig cfg_;
  std::vector<std::unique_ptr<EventTracer>> rings_;
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex mu_;
  std::function<std::string()> context_provider_;
  /// max_bundles slots; bundle `sequence` lives in slot sequence % size.
  std::vector<Slot> slots_;
  /// Last epoch in which (shard, trigger) dumped; index
  /// shard * kTriggerCount + trigger. ~0 = never.
  std::vector<uint64_t> last_dump_epoch_;
  uint64_t dumps_ = 0;  // also the next bundle's sequence
  uint64_t suppressed_ = 0;
};

}  // namespace sedspec::obs
