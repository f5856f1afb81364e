// Flight recorder: always-on per-shard event rings frozen into
// self-contained incident bundles.
//
// Every shard owns a small fixed-cost EventTracer ring (the same slot
// machinery the global tracer uses) that the checker records into on
// every round — a rolling "last K things this shard did". The ring has
// one writer, the shard's checker (EventTracer's keyed record is
// single-writer), so shards never share a ring. When something goes
// wrong (violation, quarantine, watchdog trip), dump() freezes that
// shard's ring into a FlightBundle: the resolved events and the registry
// metrics at freeze time. The bundle is self-contained JSON — every
// incident ships with the last shard_ring_capacity events that preceded
// it (256 by default: about 80 µs of back-to-back fdc rounds at ~0.3 µs
// each, longer on a quieter shard), answering "what was the checker doing
// just before this?" without a global trace.
//
// Cost model: a checker resolves its ring's EventKeys once when it attaches,
// so recording a round is one keyed EventTracer::record — a relaxed head
// load, five relaxed word stores and a relaxed head store (about 4 ns),
// with no lock, no atomic read-modify-write, no hash lookup, no allocation
// and no clock read. Round events follow the timing gate: with
// obs::timing_enabled() on they carry the checker's latency-probe start
// time, with it off ts_ns = 0 ("untimed", ordered by ring position).
// Violation, quarantine, self-heal and every other event stay timed.
// dump() runs wherever reports are drained (the service's
// consumer thread, or the guest thread of a single-VM harness), often on
// a warning round a guest keeps running through, so it copies raw values
// into storage it reuses: EventTracer::copy_packed() copies the ring's
// five-word slots word for word (40 B per event, ids still packed, no
// decoding) and an in-place MetricsRegistry::freeze() overwrites the
// slot's Frozen by index (an empty histogram that was empty in the reused
// entry writes none of its buckets), both into one of max_bundles
// reusable slots (used as a ring, oldest overwritten). In situ, on the
// guest thread of an untraced hostile_mix run (4-vCPU x86 VM, 256-event
// ring, 10 series), a dump takes about 3.6 µs: the ring copy about 2.0 µs
// and the freeze about 0.8 µs. Repeated at once on the now-warm cache the
// same copies take 0.7 and 0.2 µs, so most of a dump is cache misses: on
// the ring, on the registry's series, and on the bundle slot, which comes
// round again only every max_bundles dumps. A warm dump allocates nothing
// unless metric series were registered since the slot was last used.
// Frozen metrics point at the registry's map keys, which is sound because
// the registry never erases a series; frozen events keep interned ids,
// which the shard rings never drop. The strings are resolved and the JSON
// rendered only when a bundle is read, in bundles() and to_json().
// Per-(shard, trigger) dumps are deduplicated within an epoch (the caller
// bumps it with set_epoch() on its own cadence) so a violation storm
// produces one bundle per epoch, not thousands.
#pragma once

#include <atomic>
#include <cstdint>
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
  kManual,
};

[[nodiscard]] const char* flight_trigger_name(FlightTrigger t);

struct FlightConfig {
  /// Per-shard ring depth (events). Fixed cost per shard.
  size_t shard_ring_capacity = 256;
  /// Retained bundles; beyond this the oldest is evicted.
  size_t max_bundles = 16;
};

/// One frozen incident as readers see it: resolved events + metrics, all
/// by value (self-contained — survives the recorder and the rings it came
/// from). Rendered from the raw slot by bundles().
struct FlightBundle {
  uint64_t sequence = 0;  // monotone bundle number
  uint64_t ts_ns = 0;     // freeze time
  FlightTrigger trigger = FlightTrigger::kManual;
  size_t shard = 0;
  uint64_t epoch = 0;     // dedup epoch the incident fell in
  std::string reason;     // trigger-specific detail (report kind, ...)
  /// Shard ring at freeze time, oldest-first, strings resolved.
  struct Event {
    uint64_t ts_ns = 0;  // 0 = untimed round event
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

  [[nodiscard]] std::string to_json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t shards, FlightConfig cfg = {});

  [[nodiscard]] size_t shards() const { return rings_.size(); }
  /// The ring shard `i`'s checker should record into (attach as
  /// CheckerHooks::local_tracer). Stable for the recorder's lifetime.
  /// Single-writer: only shard `i`'s thread may record into it.
  [[nodiscard]] EventTracer& shard_ring(size_t i) { return *rings_[i]; }

  /// Bumps the dedup epoch — typically on a fixed operation cadence. Dumps
  /// for a (shard, trigger) already captured in the current epoch are
  /// suppressed (counted, not recorded).
  void set_epoch(uint64_t epoch);
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Freezes shard `shard`'s ring (plus the default registry's metrics)
  /// into a bundle. Returns true when a bundle was recorded, false when
  /// deduplicated.
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
    std::vector<PackedEvent> events;
    MetricsRegistry::Frozen metrics;
  };
  [[nodiscard]] FlightBundle render(const Slot& slot) const;

  FlightConfig cfg_;
  std::vector<std::unique_ptr<EventTracer>> rings_;
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex mu_;
  /// max_bundles slots; bundle `sequence` lives in slot sequence % size.
  std::vector<Slot> slots_;
  /// Last epoch in which (shard, trigger) dumped; index
  /// shard * kTriggerCount + trigger. ~0 = never.
  std::vector<uint64_t> last_dump_epoch_;
  uint64_t dumps_ = 0;  // also the next bundle's sequence
  uint64_t suppressed_ = 0;
};

}  // namespace sedspec::obs
