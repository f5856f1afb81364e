// Event tracing: a fixed-capacity ring buffer of typed runtime events with
// a Chrome trace-event JSON exporter (loadable in Perfetto or
// chrome://tracing).
//
// The tracer is OFF unless installed: instrumentation sites do
// `if (EventTracer* t = obs::tracer())` — a single relaxed atomic pointer
// load — so an uninstrumented run pays one predicted branch per site.
// Recording writes one fixed-size slot of a preallocated ring in place;
// wraparound overwrites the oldest entries (dropped() counts them).
// Strings (event names, device names, strategy labels) are interned into
// a bounded table and referenced by id. The string record() overload
// interns on every call (one locked hash lookup per string) and stamps
// the event with now_ns(); a site that records the same event shape
// repeatedly resolves an EventKey once via key() and records through the
// keyed overload, which is a fixed-size slot write with no lock, no
// atomic read-modify-write, no lookup, no allocation and no clock read:
// it stores the timestamp its caller passes, which is 0 for an untimed
// event (a checker's per-round record while obs::timing_enabled() is
// off). Untimed events are ordered by their ring position.
//
// Threading contract (concurrency layer): the keyed record is
// single-writer — one thread at a time records through it into a given
// ring, namely the shard checker that owns the ring (a flight recorder
// gives every shard its own). It claims its slot with a relaxed load and
// a relaxed store of the head, so a second concurrent keyed writer would
// lose counts. String records serialize on the tracer lock (the intern
// lock they already take), so any number of threads may use them on one
// tracer (the global tracer's phases, violations, SLO breaches and fault
// outcomes); a ring takes keyed records or string records from several
// threads, never both at once. The ring is read in one place,
// copy_packed(), which every reader (snapshot(), to_chrome_json(), flight
// dumps) goes through. Every ring-slot word is a relaxed atomic, so a copy
// concurrent with its writer is data-race-free; an entry being overwritten
// at copy time may mix fields from two events (word-level
// last-writer-wins) — acceptable for a lossy trace ring.
// Counts (recorded/dropped) are exact. The intern table is mutex-guarded;
// ids (and so EventKeys) are stable for the tracer's lifetime.
//
// Event vocabulary (EventType): checked guest I/O rounds (flight rings),
// checker violations/quarantines/self-heals, pipeline phase begin/end
// pairs, SLO breaches and fault-campaign outcomes. Nothing on the
// per-access path (bus, DMA engine, check engines) emits into the global
// tracer; a checker records its rounds only into its own flight ring.
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
  kIoAccess = 0,      // one checked guest PIO/MMIO round (flight ring)
  kViolation,         // checker violation; detail = strategy label
  kQuarantine,        // fail-closed containment reset a device
  kSelfHeal,          // fail-open degradation healed (resync + re-attach)
  kPhaseBegin,        // pipeline phase opened (Chrome 'B')
  kPhaseEnd,          // pipeline phase closed (Chrome 'E')
  kFaultOutcome,      // fault-injection campaign classified one fault
};

[[nodiscard]] const char* event_type_name(EventType t);

struct TraceEvent {
  uint64_t ts_ns = 0;   // obs::now_ns() at record time; 0 = untimed
  uint64_t dur_ns = 0;  // 0 for instants and begin/end markers
  uint64_t a = 0;       // type-specific numeric arg (addr, site, layer, ...)
  uint64_t b = 0;       // type-specific numeric arg (value, bytes, ...)
  uint32_t name = 0;    // interned: event/phase name
  uint32_t cat = 0;     // interned: category (device name, "pipeline", ...)
  uint32_t detail = 0;  // interned: strategy label, direction, outcome, ...
  EventType type = EventType::kIoAccess;
};

/// One ring slot as plain words, in the ring's own layout: 40 B per event
/// where a TraceEvent takes 48 B, and the string ids and type stay packed
/// in one word. copy_packed() fills these without decoding anything;
/// unpack() turns one into a TraceEvent when it is read.
struct PackedEvent {
  /// Bits per packed id field: name | cat << 16 | detail << 32 | type << 48.
  static constexpr unsigned kIdBits = 16;

  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t ids = 0;

  [[nodiscard]] TraceEvent unpack() const;
};
static_assert(sizeof(PackedEvent) == 40, "a packed event is the ring slot");

/// The interned strings of one recurring event shape, resolved once by
/// EventTracer::key() and valid only for the tracer that issued them.
struct EventKey {
  uint32_t name = 0;
  uint32_t cat = 0;
  uint32_t detail = 0;
};

class EventTracer {
 public:
  /// `capacity` is rounded up to a power of two, so claiming a slot is a
  /// mask rather than a division.
  explicit EventTracer(size_t capacity = 1 << 16);

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

  /// Fixed-cost record: a relaxed head load, five relaxed slot stores and
  /// a relaxed head store; no lock, no read-modify-write, no clock read.
  /// Single-writer: only the ring's owner may call it (see the threading
  /// contract above). `ts_ns` is the caller's timestamp (an obs::now_ns()
  /// value it already holds, or 0 for an untimed event). `k` must come
  /// from this tracer's key().
  void record(EventType type, EventKey k, uint64_t ts_ns, uint64_t a = 0,
              uint64_t b = 0, uint64_t dur_ns = 0);
  /// Convenience for one-off events: interns all three strings and writes
  /// the slot under the intern lock, stamped with now_ns(). Safe from any
  /// number of threads.
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
  /// Unpacks and resolves `events` (copied from this tracer's ring,
  /// possibly long ago: ids are stable) under one intern-lock acquisition.
  [[nodiscard]] std::vector<Resolved> resolve(
      std::span<const PackedEvent> events) const;
  /// resolve() of a copy_packed(): the retained events oldest-first,
  /// resolved.
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

  /// The one ring read: copies the retained slots oldest-first, word for
  /// word with relaxed loads, into `out`, resized once and written in
  /// place. It decodes nothing and allocates nothing once `out` has
  /// capacity() reserved, so a flight dump pays five loads and five stores
  /// per event. Safe against concurrent recording (no data race), but
  /// boundary entries being overwritten at copy time may carry mixed
  /// fields; prefer quiescent reads for exact exports.
  void copy_packed(std::vector<PackedEvent>& out) const;
  /// copy_packed(), unpacked: the retained events oldest-first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with ts/dur in
  /// microseconds, phase 'B'/'E' for pipeline phases, 'X' for events
  /// carrying a duration, and instant 'i' otherwise.
  [[nodiscard]] std::string to_chrome_json() const;

  void clear();

  /// Intern-table bound: strings take ids 0..kMaxStrings-1 (0 is the
  /// empty string), and once the table is full the overflow sentinel takes
  /// id kMaxStrings.
  static constexpr size_t kMaxStrings = 4096;

 private:
  /// One ring slot: PackedEvent's five words as relaxed atomics, so
  /// writing or copying a slot is five plain moves on x86/arm64, and a
  /// writer and a concurrent copy_packed() never constitute a data race.
  static_assert(kMaxStrings < (size_t{1} << PackedEvent::kIdBits),
                "every interned id, the overflow sentinel included, must "
                "fit a packed slot field");
  struct AtomicSlot {
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> ids{0};  // PackedEvent::ids
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
  EventKey key_locked(std::string_view name, std::string_view cat,
                      std::string_view detail);

  mutable std::mutex intern_mu_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> ids_;

  std::unique_ptr<AtomicSlot[]> ring_;
  size_t capacity_ = 0;  // a power of two
  size_t mask_ = 0;      // capacity_ - 1
  std::atomic<uint64_t> head_{0};
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
