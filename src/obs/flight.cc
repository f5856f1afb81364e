#include "obs/flight.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "obs/json.h"

namespace sedspec::obs {

namespace {
constexpr size_t kTriggerCount = 5;
}  // namespace

const char* flight_trigger_name(FlightTrigger t) {
  switch (t) {
    case FlightTrigger::kViolation:
      return "violation";
    case FlightTrigger::kQuarantine:
      return "quarantine";
    case FlightTrigger::kWatchdog:
      return "watchdog";
    case FlightTrigger::kSloBreach:
      return "slo_breach";
    case FlightTrigger::kManual:
      return "manual";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t shards, FlightConfig cfg) : cfg_(cfg) {
  SEDSPEC_REQUIRE(shards > 0);
  SEDSPEC_REQUIRE(cfg_.shard_ring_capacity > 0);
  SEDSPEC_REQUIRE(cfg_.max_bundles > 0);
  rings_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    rings_.push_back(
        std::make_unique<EventTracer>(cfg_.shard_ring_capacity));
    // Shard rings record everything the checker hands them, including
    // per-round I/O events — that is the whole point of a flight ring.
    rings_.back()->set_detail(EventTracer::Detail::kVerbose);
  }
  last_dump_epoch_.assign(shards * kTriggerCount, ~uint64_t{0});
  slots_.resize(cfg_.max_bundles);
}

void FlightRecorder::set_context_provider(
    std::function<std::string()> provider) {
  std::lock_guard lock(mu_);
  context_provider_ = std::move(provider);
}

void FlightRecorder::set_epoch(uint64_t epoch) {
  epoch_.store(epoch, std::memory_order_relaxed);
}

bool FlightRecorder::dump(FlightTrigger trigger, size_t shard,
                          std::string_view reason) {
  SEDSPEC_REQUIRE(shard < rings_.size());
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);

  std::lock_guard lock(mu_);
  const size_t dedup_idx =
      shard * kTriggerCount + static_cast<size_t>(trigger);
  if (last_dump_epoch_[dedup_idx] == epoch) {
    ++suppressed_;
    return false;
  }
  last_dump_epoch_[dedup_idx] = epoch;

  Slot& slot = slots_[dumps_ % slots_.size()];
  slot.sequence = dumps_;
  slot.ts_ns = now_ns();
  slot.trigger = trigger;
  slot.shard = shard;
  slot.epoch = epoch;
  slot.reason.assign(reason);
  // A slot's first use sizes it for any shard's full ring (all rings share
  // one capacity), so later dumps into it never grow it. Done here rather
  // than up front so a recorder that never dumps costs no bundle memory.
  slot.events.reserve(rings_[shard]->capacity());
  rings_[shard]->snapshot_into(slot.events);
  metrics().freeze(slot.metrics);
  if (context_provider_) {
    slot.context_json = context_provider_();
  } else {
    slot.context_json.clear();
  }
  ++dumps_;
  return true;
}

uint64_t FlightRecorder::dumps() const {
  std::lock_guard lock(mu_);
  return dumps_;
}

uint64_t FlightRecorder::suppressed() const {
  std::lock_guard lock(mu_);
  return suppressed_;
}

std::vector<FlightBundle> FlightRecorder::bundles() const {
  std::lock_guard lock(mu_);
  const uint64_t kept = std::min<uint64_t>(dumps_, slots_.size());
  std::vector<FlightBundle> out;
  out.reserve(kept);
  for (uint64_t seq = dumps_ - kept; seq < dumps_; ++seq) {
    out.push_back(render(slots_[seq % slots_.size()]));
  }
  return out;
}

FlightBundle FlightRecorder::render(const Slot& slot) const {
  FlightBundle b;
  b.sequence = slot.sequence;
  b.ts_ns = slot.ts_ns;
  b.trigger = slot.trigger;
  b.shard = slot.shard;
  b.epoch = slot.epoch;
  b.reason = slot.reason;
  std::vector<EventTracer::Resolved> events =
      rings_[slot.shard]->resolve(slot.events);
  b.events.reserve(events.size());
  for (EventTracer::Resolved& r : events) {
    FlightBundle::Event e;
    e.ts_ns = r.ev.ts_ns;
    e.a = r.ev.a;
    e.b = r.ev.b;
    e.type = event_type_name(r.ev.type);
    e.name = std::move(r.name);
    e.cat = std::move(r.cat);
    e.detail = std::move(r.detail);
    b.events.push_back(std::move(e));
  }
  b.metrics_json = slot.metrics.to_json();
  b.context_json = slot.context_json;
  return b;
}

std::string FlightBundle::to_json() const {
  std::ostringstream out;
  out << "{\n  \"sequence\": " << sequence << ",\n  \"ts_ns\": " << ts_ns
      << ",\n  \"trigger\": \"" << flight_trigger_name(trigger)
      << "\",\n  \"shard\": " << shard << ",\n  \"epoch\": " << epoch
      << ",\n  \"reason\": \"" << json_escape(reason)
      << "\",\n  \"events\": [";
  bool first = true;
  for (const Event& e : events) {
    out << (first ? "" : ",") << "\n    {\"ts_ns\": " << e.ts_ns
        << ", \"type\": \"" << json_escape(e.type) << "\", \"name\": \""
        << json_escape(e.name) << "\", \"cat\": \"" << json_escape(e.cat)
        << "\", \"detail\": \"" << json_escape(e.detail)
        << "\", \"a\": " << e.a << ", \"b\": " << e.b << "}";
    first = false;
  }
  // metrics_json / context_json are themselves JSON — embed verbatim so
  // the bundle parses back as one document.
  out << "\n  ],\n  \"metrics\": "
      << (metrics_json.empty() ? "{}" : metrics_json)
      << ",\n  \"context\": " << (context_json.empty() ? "{}" : context_json)
      << "\n}\n";
  return out.str();
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightBundle> all = bundles();
  std::ostringstream out;
  out << "{\n\"dumps\": " << dumps() << ",\n\"suppressed\": " << suppressed()
      << ",\n\"bundles\": [";
  bool first = true;
  for (const FlightBundle& b : all) {
    out << (first ? "" : ",") << "\n" << b.to_json();
    first = false;
  }
  out << "\n]\n}\n";
  return out.str();
}

}  // namespace sedspec::obs
