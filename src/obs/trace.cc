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
    case EventType::kTraversalStep:
      return "traversal_step";
    case EventType::kViolation:
      return "violation";
    case EventType::kQuarantine:
      return "quarantine";
    case EventType::kSelfHeal:
      return "self_heal";
    case EventType::kDmaXfer:
      return "dma_xfer";
    case EventType::kPhaseBegin:
      return "phase_begin";
    case EventType::kPhaseEnd:
      return "phase_end";
    case EventType::kFaultOutcome:
      return "fault_outcome";
    case EventType::kSloBreach:
      return "slo_breach";
  }
  return "?";
}

void EventTracer::AtomicSlot::store(const TraceEvent& ev) {
  ts_ns.store(ev.ts_ns, std::memory_order_relaxed);
  dur_ns.store(ev.dur_ns, std::memory_order_relaxed);
  a.store(ev.a, std::memory_order_relaxed);
  b.store(ev.b, std::memory_order_relaxed);
  name.store(ev.name, std::memory_order_relaxed);
  cat.store(ev.cat, std::memory_order_relaxed);
  detail.store(ev.detail, std::memory_order_relaxed);
  type.store(static_cast<uint8_t>(ev.type), std::memory_order_relaxed);
}

TraceEvent EventTracer::AtomicSlot::load() const {
  TraceEvent ev;
  ev.ts_ns = ts_ns.load(std::memory_order_relaxed);
  ev.dur_ns = dur_ns.load(std::memory_order_relaxed);
  ev.a = a.load(std::memory_order_relaxed);
  ev.b = b.load(std::memory_order_relaxed);
  ev.name = name.load(std::memory_order_relaxed);
  ev.cat = cat.load(std::memory_order_relaxed);
  ev.detail = detail.load(std::memory_order_relaxed);
  ev.type = static_cast<EventType>(type.load(std::memory_order_relaxed));
  return ev;
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
  EventKey k;
  k.name = intern_locked(name);
  k.cat = intern_locked(cat);
  k.detail = detail.empty() ? 0 : intern_locked(detail);
  return k;
}

void EventTracer::record(EventType type, EventKey k, uint64_t a, uint64_t b,
                         uint64_t dur_ns) {
  TraceEvent ev;
  ev.ts_ns = now_ns();
  ev.dur_ns = dur_ns;
  ev.a = a;
  ev.b = b;
  ev.name = k.name;
  ev.cat = k.cat;
  ev.detail = k.detail;
  ev.type = type;
  const uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
  ring_[slot & mask_].store(ev);
}

void EventTracer::record(EventType type, std::string_view name,
                         std::string_view cat, std::string_view detail,
                         uint64_t a, uint64_t b, uint64_t dur_ns) {
  record(type, key(name, cat, detail), a, b, dur_ns);
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

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::vector<TraceEvent> out;
  snapshot_into(out);
  return out;
}

void EventTracer::snapshot_into(std::vector<TraceEvent>& out) const {
  const uint64_t head = recorded();
  const uint64_t count = std::min<uint64_t>(head, capacity_);
  out.clear();
  out.reserve(count);
  for (uint64_t i = head - count; i < head; ++i) {
    out.push_back(ring_[i & mask_].load());
  }
}

std::vector<EventTracer::Resolved> EventTracer::resolve(
    std::span<const TraceEvent> events) const {
  std::vector<Resolved> out;
  out.reserve(events.size());
  std::lock_guard lock(intern_mu_);
  for (const TraceEvent& ev : events) {
    SEDSPEC_REQUIRE(ev.name < strings_.size() && ev.cat < strings_.size() &&
                    ev.detail < strings_.size());
    out.push_back({ev, strings_[ev.name], strings_[ev.cat],
                   strings_[ev.detail]});
  }
  return out;
}

std::vector<EventTracer::Resolved> EventTracer::snapshot_resolved() const {
  return resolve(snapshot());
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
