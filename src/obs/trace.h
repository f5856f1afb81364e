// Event tracing: a fixed-capacity ring buffer of typed runtime events with
// a Chrome trace-event JSON exporter (loadable in Perfetto or
// chrome://tracing).
//
// The tracer is OFF unless installed: instrumentation sites do
// `if (EventTracer* t = obs::tracer())` — a single relaxed atomic pointer
// load — so an uninstrumented run pays one predicted branch per site.
// Recording is lock-free: a relaxed fetch_add claims a slot in a
// preallocated ring, the event is written in place, and wraparound
// overwrites the oldest entries (dropped() counts them). Strings (event
// names, device names, strategy labels) are interned into a bounded table
// and referenced by id. The string record() overload interns on every call
// (one locked hash lookup per string); a site that records the same event
// shape repeatedly resolves an EventKey once via key() and records through
// the keyed overload, which is a fixed-size slot write with no lock, no
// lookup and no allocation.
//
// Threading contract (concurrency layer): record() may be called from any
// number of shard threads concurrently — every ring-slot field is a
// relaxed atomic, so concurrent writers (same slot after wraparound) and a
// concurrent snapshot() are data-race-free. Under contention an individual
// snapshot entry may mix fields from two events (field-level last-writer-
// wins) — acceptable for a lossy trace ring; counts (recorded/dropped) are
// exact. The intern table is mutex-guarded; ids (and so EventKeys) are
// stable for the tracer's lifetime.
//
// Event vocabulary (EventType): guest I/O accesses, ES-CFG traversal steps,
// checker violations/quarantines/self-heals, DMA transfers, pipeline phase
// begin/end pairs, and fault-campaign outcomes. io_access and
// traversal_step are high-frequency and only recorded at Detail::kVerbose.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace sedspec::obs {

enum class EventType : uint8_t {
  kIoAccess = 0,      // one guest PIO/MMIO access (verbose only)
  kTraversalStep,     // one ES-CFG block visit (verbose only)
  kViolation,         // checker violation; detail = strategy label
  kQuarantine,        // fail-closed containment reset a device
  kSelfHeal,          // fail-open degradation healed (resync + re-attach)
  kDmaXfer,           // one DMA engine transfer
  kPhaseBegin,        // pipeline phase opened (Chrome 'B')
  kPhaseEnd,          // pipeline phase closed (Chrome 'E')
  kFaultOutcome,      // fault-injection campaign classified one fault
  kSloBreach,         // SLO engine burn-rate breach; detail = SLO name
};

[[nodiscard]] const char* event_type_name(EventType t);

struct TraceEvent {
  uint64_t ts_ns = 0;   // obs::now_ns() at record time
  uint64_t dur_ns = 0;  // 0 for instants and begin/end markers
  uint64_t a = 0;       // type-specific numeric arg (addr, site, layer, ...)
  uint64_t b = 0;       // type-specific numeric arg (value, bytes, ...)
  uint32_t name = 0;    // interned: event/phase name
  uint32_t cat = 0;     // interned: category (device name, "pipeline", ...)
  uint32_t detail = 0;  // interned: strategy label, direction, outcome, ...
  EventType type = EventType::kIoAccess;
};

/// The interned strings of one recurring event shape, resolved once by
/// EventTracer::key() and valid only for the tracer that issued them.
struct EventKey {
  uint32_t name = 0;
  uint32_t cat = 0;
  uint32_t detail = 0;
};

class EventTracer {
 public:
  enum class Detail : uint8_t {
    kNormal = 0,   // everything except per-access / per-step events
    kVerbose = 1,  // adds io_access and traversal_step
  };

  /// `capacity` is rounded up to a power of two, so claiming a slot is a
  /// mask rather than a division.
  explicit EventTracer(size_t capacity = 1 << 16);

  void set_detail(Detail d) {
    detail_.store(static_cast<uint8_t>(d), std::memory_order_relaxed);
  }
  [[nodiscard]] Detail detail() const {
    return static_cast<Detail>(detail_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool verbose() const { return detail() == Detail::kVerbose; }

  /// Interns `s` and returns its stable id. The table is bounded
  /// (kMaxStrings); once full, unseen strings collapse to one overflow id
  /// so a pathological label stream cannot grow memory without bound.
  uint32_t intern(std::string_view s);
  /// By value: the intern table may grow (and relocate) under a concurrent
  /// intern(), so a reference could dangle the moment the lock is dropped.
  [[nodiscard]] std::string string_at(uint32_t id) const;
  /// Interned strings held (including the empty string, id 0).
  [[nodiscard]] size_t interned() const;

  /// Interns an event's strings once; an empty `detail` maps to id 0.
  [[nodiscard]] EventKey key(std::string_view name, std::string_view cat,
                             std::string_view detail = {});

  /// Fixed-cost record: a clock read, a relaxed fetch_add and a slot
  /// write. `k` must come from this tracer's key().
  void record(EventType type, EventKey k, uint64_t a = 0, uint64_t b = 0,
              uint64_t dur_ns = 0);
  /// Convenience for one-off events: interns all three strings first.
  void record(EventType type, std::string_view name, std::string_view cat,
              std::string_view detail = {}, uint64_t a = 0, uint64_t b = 0,
              uint64_t dur_ns = 0);

  /// Events with their strings resolved.
  struct Resolved {
    TraceEvent ev;
    std::string name;
    std::string cat;
    std::string detail;
  };
  /// Resolves `events` (recorded by this tracer, possibly long ago: ids
  /// are stable) under one intern-lock acquisition.
  [[nodiscard]] std::vector<Resolved> resolve(
      std::span<const TraceEvent> events) const;
  /// resolve(snapshot()): the retained events oldest-first, resolved.
  [[nodiscard]] std::vector<Resolved> snapshot_resolved() const;

  /// Pipeline-phase markers (Chrome 'B'/'E'; Perfetto renders the span).
  void begin_phase(std::string_view name, std::string_view cat);
  void end_phase(std::string_view name, std::string_view cat);

  [[nodiscard]] size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] size_t size() const;
  /// Total events ever recorded.
  [[nodiscard]] uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events lost to wraparound (oldest-first overwrite).
  [[nodiscard]] uint64_t dropped() const;

  /// Copies the retained events oldest-first. Safe against concurrent
  /// recording (no data race), but boundary entries being overwritten at
  /// snapshot time may carry mixed fields; prefer quiescent reads for
  /// exact exports.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// snapshot() into `out`, reusing its storage: no allocation once `out`
  /// holds capacity() events (flight dumps).
  void snapshot_into(std::vector<TraceEvent>& out) const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with ts/dur in
  /// microseconds, phase 'B'/'E' for pipeline phases, 'X' for events
  /// carrying a duration, and instant 'i' otherwise.
  [[nodiscard]] std::string to_chrome_json() const;

  void clear();

 private:
  static constexpr size_t kMaxStrings = 4096;

  /// One ring slot. Every field is a relaxed atomic so two writers that
  /// collide on the slot (ring wraparound) and a concurrent snapshot()
  /// never constitute a data race; a relaxed store compiles to a plain
  /// register move on x86/arm64, so recording costs the same as the old
  /// plain-struct write.
  struct AtomicSlot {
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint32_t> name{0};
    std::atomic<uint32_t> cat{0};
    std::atomic<uint32_t> detail{0};
    std::atomic<uint8_t> type{0};

    void store(const TraceEvent& ev);
    [[nodiscard]] TraceEvent load() const;
  };

  /// Transparent hash: intern() looks a string_view up without building a
  /// std::string first.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  uint32_t intern_locked(std::string_view s);

  mutable std::mutex intern_mu_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> ids_;

  std::unique_ptr<AtomicSlot[]> ring_;
  size_t capacity_ = 0;  // a power of two
  size_t mask_ = 0;      // capacity_ - 1
  std::atomic<uint64_t> head_{0};
  std::atomic<uint8_t> detail_{0};
};

namespace detail {
/// Storage for the process-global tracer pointer. Exposed so tracer()
/// inlines to one relaxed load (it gates every instrumented hot-path
/// site). Mutate only via set_tracer().
extern std::atomic<EventTracer*> g_tracer;
}  // namespace detail

/// Process-global tracer the instrumentation sites emit into; null (the
/// default) disables event recording entirely.
[[nodiscard]] inline EventTracer* tracer() {
  return detail::g_tracer.load(std::memory_order_relaxed);
}
void set_tracer(EventTracer* tracer);

/// RAII pipeline-phase probe: emits begin/end events to the installed
/// tracer and records the phase duration into the default registry's
/// `pipeline_phase_ns{phase="<name>"}` histogram (when timing is on).
class PhaseScope {
 public:
  PhaseScope(std::string name, std::string cat);
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

 private:
  std::string name_;
  std::string cat_;
  Histogram* hist_ = nullptr;
  uint64_t start_ = 0;
};

}  // namespace sedspec::obs
