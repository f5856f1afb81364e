#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "common/assert.h"
#include "obs/json.h"

namespace sedspec::obs {

namespace detail {
std::atomic<EventTracer*> g_tracer{nullptr};
}  // namespace detail

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kIoAccess:
      return "io_access";
    case EventType::kViolation:
      return "violation";
    case EventType::kQuarantine:
      return "quarantine";
    case EventType::kSelfHeal:
      return "self_heal";
    case EventType::kPhaseBegin:
      return "phase_begin";
    case EventType::kPhaseEnd:
      return "phase_end";
    case EventType::kFaultOutcome:
      return "fault_outcome";
  }
  return "?";
}

EventTracer::EventTracer(size_t capacity) {
  SEDSPEC_REQUIRE(capacity > 0);
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  ring_ = std::make_unique<AtomicSlot[]>(capacity_);
  // Id 0 is the empty string so zero-initialized fields render as "".
  strings_.emplace_back("");
  ids_.emplace("", 0);
}

uint32_t EventTracer::intern(std::string_view s) {
  std::lock_guard lock(intern_mu_);
  return intern_locked(s);
}

uint32_t EventTracer::intern_locked(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    return it->second;
  }
  if (strings_.size() >= kMaxStrings) {
    // Bounded table: collapse the overflow into one sentinel entry.
    static constexpr std::string_view kOverflow = "<interned-overflow>";
    auto of = ids_.find(kOverflow);
    if (of != ids_.end()) {
      return of->second;
    }
    s = kOverflow;
  }
  const auto id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

std::string EventTracer::string_at(uint32_t id) const {
  std::lock_guard lock(intern_mu_);
  SEDSPEC_REQUIRE(id < strings_.size());
  return strings_[id];
}

size_t EventTracer::interned() const {
  std::lock_guard lock(intern_mu_);
  return strings_.size();
}

EventKey EventTracer::key(std::string_view name, std::string_view cat,
                          std::string_view detail) {
  std::lock_guard lock(intern_mu_);
  return key_locked(name, cat, detail);
}

EventKey EventTracer::key_locked(std::string_view name, std::string_view cat,
                                 std::string_view detail) {
  EventKey k;
  k.name = intern_locked(name);
  k.cat = intern_locked(cat);
  k.detail = detail.empty() ? 0 : intern_locked(detail);
  return k;
}

void EventTracer::record(EventType type, EventKey k, uint64_t ts_ns,
                         uint64_t a, uint64_t b, uint64_t dur_ns) {
  // Single writer: nobody else moves the head, so a plain load and store
  // claim the slot exactly.
  const uint64_t h = head_.load(std::memory_order_relaxed);
  AtomicSlot& slot = ring_[h & mask_];
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  constexpr unsigned kIdBits = PackedEvent::kIdBits;
  slot.ids.store(uint64_t{k.name} | uint64_t{k.cat} << kIdBits |
                     uint64_t{k.detail} << (2 * kIdBits) |
                     uint64_t{static_cast<uint8_t>(type)} << (3 * kIdBits),
                 std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_relaxed);
}

void EventTracer::record(EventType type, std::string_view name,
                         std::string_view cat, std::string_view detail,
                         uint64_t a, uint64_t b, uint64_t dur_ns) {
  // The intern lock also makes this thread the ring's one writer for the
  // slot write, so string records from any number of threads stay exact
  // (and land in timestamp order).
  std::lock_guard lock(intern_mu_);
  const EventKey k = key_locked(name, cat, detail);
  record(type, k, now_ns(), a, b, dur_ns);
}

void EventTracer::begin_phase(std::string_view name, std::string_view cat) {
  record(EventType::kPhaseBegin, name, cat);
}

void EventTracer::end_phase(std::string_view name, std::string_view cat) {
  record(EventType::kPhaseEnd, name, cat);
}

size_t EventTracer::size() const {
  return static_cast<size_t>(std::min<uint64_t>(recorded(), capacity_));
}

uint64_t EventTracer::dropped() const {
  const uint64_t n = recorded();
  return n > capacity_ ? n - capacity_ : 0;
}

TraceEvent PackedEvent::unpack() const {
  constexpr uint64_t kIdMask = (uint64_t{1} << kIdBits) - 1;
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.a = a;
  ev.b = b;
  ev.name = static_cast<uint32_t>(ids & kIdMask);
  ev.cat = static_cast<uint32_t>(ids >> kIdBits & kIdMask);
  ev.detail = static_cast<uint32_t>(ids >> (2 * kIdBits) & kIdMask);
  ev.type = static_cast<EventType>(ids >> (3 * kIdBits));
  return ev;
}

void EventTracer::copy_packed(std::vector<PackedEvent>& out) const {
  const uint64_t head = recorded();
  const uint64_t count = std::min<uint64_t>(head, capacity_);
  out.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    const AtomicSlot& slot = ring_[(head - count + i) & mask_];
    PackedEvent& ev = out[i];
    ev.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    ev.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    ev.a = slot.a.load(std::memory_order_relaxed);
    ev.b = slot.b.load(std::memory_order_relaxed);
    ev.ids = slot.ids.load(std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::vector<PackedEvent> packed;
  copy_packed(packed);
  std::vector<TraceEvent> out;
  out.reserve(packed.size());
  for (const PackedEvent& p : packed) {
    out.push_back(p.unpack());
  }
  return out;
}

std::vector<EventTracer::Resolved> EventTracer::resolve(
    std::span<const PackedEvent> events) const {
  std::vector<Resolved> out;
  out.reserve(events.size());
  std::lock_guard lock(intern_mu_);
  for (const PackedEvent& p : events) {
    const TraceEvent ev = p.unpack();
    SEDSPEC_REQUIRE(ev.name < strings_.size() && ev.cat < strings_.size() &&
                    ev.detail < strings_.size());
    out.push_back({ev, strings_[ev.name], strings_[ev.cat],
                   strings_[ev.detail]});
  }
  return out;
}

std::vector<EventTracer::Resolved> EventTracer::snapshot_resolved() const {
  std::vector<PackedEvent> packed;
  copy_packed(packed);
  return resolve(packed);
}

void EventTracer::clear() { head_.store(0, std::memory_order_relaxed); }

std::string EventTracer::to_chrome_json() const {
  const std::vector<Resolved> events = snapshot_resolved();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Resolved& r : events) {
    const TraceEvent& ev = r.ev;
    char ph = 'i';
    if (ev.type == EventType::kPhaseBegin) {
      ph = 'B';
    } else if (ev.type == EventType::kPhaseEnd) {
      ph = 'E';
    } else if (ev.dur_ns > 0) {
      ph = 'X';
    }
    char head[96];
    std::snprintf(head, sizeof(head), "%s{\"ts\":%.3f,\"pid\":1,\"tid\":1",
                  first ? "\n" : ",\n",
                  static_cast<double>(ev.ts_ns) / 1000.0);
    out << head;
    first = false;
    out << ",\"ph\":\"" << ph << '"';
    if (ph == 'X') {
      char dur[48];
      std::snprintf(dur, sizeof(dur), ",\"dur\":%.3f",
                    static_cast<double>(ev.dur_ns) / 1000.0);
      out << dur;
    } else if (ph == 'i') {
      out << ",\"s\":\"p\"";
    }
    out << ",\"name\":\"" << json_escape(r.name) << '"';
    out << ",\"cat\":\"" << json_escape(r.cat) << '"';
    // End markers carry no args in the trace-event format.
    if (ev.type != EventType::kPhaseEnd) {
      out << ",\"args\":{\"type\":\"" << event_type_name(ev.type) << '"';
      if (ev.detail != 0) {
        const char* key =
            ev.type == EventType::kViolation ? "strategy" : "detail";
        out << ",\"" << key << "\":\"" << json_escape(r.detail) << '"';
      }
      if (ev.a != 0) {
        out << ",\"a\":" << ev.a;
      }
      if (ev.b != 0) {
        out << ",\"b\":" << ev.b;
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

void set_tracer(EventTracer* tracer) {
  detail::g_tracer.store(tracer, std::memory_order_relaxed);
}

PhaseScope::PhaseScope(std::string name, std::string cat)
    : name_(std::move(name)), cat_(std::move(cat)) {
  if (EventTracer* t = tracer()) {
    t->begin_phase(name_, cat_);
  }
  if (timing_enabled()) {
    hist_ = &metrics().histogram("pipeline_phase_ns",
                                 label({{"phase", name_}}));
    start_ = now_ns();
  }
}

PhaseScope::~PhaseScope() {
  if (hist_ != nullptr) {
    hist_->record(now_ns() - start_);
  }
  if (EventTracer* t = tracer()) {
    t->end_phase(name_, cat_);
  }
}

}  // namespace sedspec::obs
