// Observability layer: histogram math, registry labeling, the event ring,
// exporter round-trips through the JSON parser, and the checker
// integration (a blocked exploit must surface as a violation event with
// the right strategy label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "devices/fdc.h"
#include "guest/fdc_driver.h"
#include "guest/workload.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sedspec/pipeline.h"
#include "vdev/bus.h"
#include "vdev/dma.h"
#include "vdev/memory.h"

namespace sedspec {
namespace {

using devices::FdcDevice;

/// The tracer and timing switch are process globals; every test that
/// installs one must restore the default so the rest of the suite (and the
/// checker tests running in this binary) see the stock configuration.
struct ObsGlobalGuard {
  ~ObsGlobalGuard() {
    obs::set_tracer(nullptr);
    obs::set_timing_enabled(false);
  }
};

TEST(ObsHistogram, BucketBoundariesAreLog2) {
  // Bucket 0 holds only 0; bucket i (i >= 1) holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(255), 8u);
  EXPECT_EQ(obs::Histogram::bucket_of(256), 9u);
  EXPECT_EQ(obs::Histogram::bucket_of(~uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper(8), 255u);
  EXPECT_EQ(obs::Histogram::bucket_upper(64), ~uint64_t{0});

  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(ObsHistogram, PercentilesResolveToBucketEdgeClampedToMax) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  EXPECT_EQ(h.count(), 0u);

  for (uint64_t v = 1; v <= 8; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 36u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  // Cumulative counts per bucket: b1 (={1}) 1, b2 ({2,3}) 3, b3 ({4..7})
  // 7, b4 ({8..15}) 8. p50 targets rank 4 -> bucket 3, upper edge 7.
  EXPECT_EQ(h.p50(), 7u);
  // p99 targets rank 8 -> bucket 4, upper edge 15, clamped to max = 8.
  EXPECT_EQ(h.p99(), 8u);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
}

TEST(ObsRegistry, LabelsDistinguishSeriesAndHandlesAreStable) {
  obs::MetricsRegistry reg;
  const std::string fdc = obs::label({{"device", "fdc"}});
  const std::string esp = obs::label({{"device", "scsi-esp"}});
  EXPECT_EQ(fdc, "device=\"fdc\"");
  EXPECT_EQ(obs::label({{"a", "1"}, {"b", "2"}}), "a=\"1\",b=\"2\"");

  obs::Counter& c1 = reg.counter("hits", fdc);
  obs::Counter& c2 = reg.counter("hits", fdc);
  obs::Counter& c3 = reg.counter("hits", esp);
  EXPECT_EQ(&c1, &c2);  // lookup-or-create returns the same handle
  EXPECT_NE(&c1, &c3);  // different labels, different series
  c1.inc(5);
  c3.inc(1);
  EXPECT_EQ(reg.find_counter("hits", fdc)->value(), 5u);
  EXPECT_EQ(reg.find_counter("hits", esp)->value(), 1u);
  EXPECT_EQ(reg.find_counter("hits", "device=\"nope\""), nullptr);
  EXPECT_EQ(reg.find_histogram("hits", fdc), nullptr);

  reg.histogram("lat", fdc).record(7);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("sedspec_hits{device=\"fdc\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sedspec_lat summary"), std::string::npos);

  // The JSON snapshot parses back with the same values.
  const obs::JsonValue snap = obs::json_parse(reg.to_json());
  const obs::JsonValue* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_array());
  ASSERT_EQ(counters->array.size(), 2u);
  EXPECT_EQ(counters->array[0].find("name")->str, "hits");
  EXPECT_EQ(counters->array[0].find("labels")->str, "device=\"fdc\"");
  EXPECT_DOUBLE_EQ(counters->array[0].find("value")->number, 5.0);
}

TEST(ObsTracer, RingWrapsOldestFirstAndCountsDrops) {
  obs::EventTracer tracer(8);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(obs::EventTracer(5).capacity(), 8u);  // rounded up to 2^k
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.record(obs::EventType::kFaultOutcome, "fault_outcome", "fdc",
                  "contained", /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);  // oldest retained first
    EXPECT_EQ(tracer.string_at(events[i].name), "fault_outcome");
  }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, KeyedRecordResolvesLikeStringRecordWithoutInterning) {
  obs::EventTracer tracer(16);
  const obs::EventKey k = tracer.key("io_write", "fdc");
  EXPECT_EQ(k.name, tracer.intern("io_write"));
  EXPECT_EQ(k.cat, tracer.intern("fdc"));
  EXPECT_EQ(k.detail, 0u);  // empty detail is the reserved id 0
  const obs::EventKey v = tracer.key("violation", "fdc", "parameter check");
  EXPECT_EQ(v.detail, tracer.intern("parameter check"));

  // Recording through a key never touches the intern table.
  const size_t interned = tracer.interned();
  for (uint64_t i = 0; i < 40; ++i) {
    tracer.record(obs::EventType::kIoAccess, k, /*ts_ns=*/0, /*a=*/0x3f5,
                  /*b=*/i);
  }
  EXPECT_EQ(tracer.interned(), interned);
  // The string overload re-interns, but a hit does not grow the table.
  tracer.record(obs::EventType::kViolation, "violation", "fdc",
                "parameter check", /*a=*/9);
  EXPECT_EQ(tracer.interned(), interned);

  const std::vector<obs::EventTracer::Resolved> events =
      tracer.snapshot_resolved();
  ASSERT_EQ(events.size(), tracer.capacity());
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].ev.type, obs::EventType::kIoAccess);
    EXPECT_EQ(events[i].name, "io_write");
    EXPECT_EQ(events[i].cat, "fdc");
    EXPECT_EQ(events[i].detail, "");
    EXPECT_EQ(events[i].ev.b, 25 + i);  // 41 recorded, 16 kept
  }
  const obs::EventTracer::Resolved& last = events.back();
  EXPECT_EQ(last.name, "violation");
  EXPECT_EQ(last.detail, "parameter check");
  EXPECT_EQ(last.ev.a, 9u);
  EXPECT_EQ(tracer.string_at(last.ev.detail), last.detail);
}

// Keyed recording takes no lock, so it may run while another thread grows
// the intern table; under the TSan preset this is the data-race gate for
// that pairing.
TEST(ObsTracer, KeyedRecordRacesInternWithoutDataRace) {
  obs::EventTracer tracer(64);
  const obs::EventKey k = tracer.key("io_read", "sdhci");
  std::thread interner([&] {
    for (int i = 0; i < 2000; ++i) {
      (void)tracer.intern("label-" + std::to_string(i));
    }
  });
  for (uint64_t i = 0; i < 20000; ++i) {
    tracer.record(obs::EventType::kIoAccess, k, /*ts_ns=*/0, /*a=*/i);
  }
  interner.join();
  EXPECT_EQ(tracer.recorded(), 20000u);
  for (const obs::EventTracer::Resolved& r : tracer.snapshot_resolved()) {
    EXPECT_EQ(r.name, "io_read");
    EXPECT_EQ(r.cat, "sdhci");
  }
}

// A ring slot packs the three string ids and the event type into one
// word. Records one event of every EventType into `tracer`, rotating the
// ids at the intern table's limits (the empty string, the last ordinary
// id, the overflow sentinel) through name, cat and detail, with full
// 64-bit numeric fields; returns what was recorded, oldest-first.
std::vector<obs::TraceEvent> record_limit_events(obs::EventTracer& tracer) {
  EXPECT_EQ(tracer.intern(""), 0u);
  uint32_t last = 0;
  for (size_t i = 1; i < obs::EventTracer::kMaxStrings; ++i) {
    last = tracer.intern("s" + std::to_string(i));
  }
  EXPECT_EQ(last, obs::EventTracer::kMaxStrings - 1);
  const uint32_t sentinel = tracer.intern("one-too-many");
  EXPECT_EQ(sentinel, obs::EventTracer::kMaxStrings);
  EXPECT_EQ(tracer.intern("and-another"), sentinel);
  EXPECT_EQ(tracer.string_at(sentinel), "<interned-overflow>");

  const std::vector<obs::EventType> types = {
      obs::EventType::kIoAccess,   obs::EventType::kViolation,
      obs::EventType::kQuarantine, obs::EventType::kSelfHeal,
      obs::EventType::kPhaseBegin, obs::EventType::kPhaseEnd,
      obs::EventType::kFaultOutcome};
  const uint32_t ids[] = {0, last, sentinel};
  std::vector<obs::TraceEvent> want;
  for (size_t i = 0; i < types.size(); ++i) {
    obs::TraceEvent ev;
    ev.type = types[i];
    ev.name = ids[i % 3];
    ev.cat = ids[(i + 1) % 3];
    ev.detail = ids[(i + 2) % 3];
    ev.ts_ns = ~uint64_t{0} - i;
    ev.dur_ns = uint64_t{1} << 63 | i;
    ev.a = 0xdeadbeefcafef00dull ^ i;
    ev.b = ~uint64_t{0} ^ (uint64_t{i} << 40);
    tracer.record(ev.type, obs::EventKey{ev.name, ev.cat, ev.detail},
                  ev.ts_ns, ev.a, ev.b, ev.dur_ns);
    want.push_back(ev);
  }
  return want;
}

// Every id at the table's limits, every EventType and full 64-bit numeric
// fields must come back from snapshot() (the packed copy, unpacked) field
// for field.
TEST(ObsTracer, PackedSlotRoundTripsIdLimitsTypesAndWideFields) {
  obs::EventTracer tracer(16);
  const std::vector<obs::TraceEvent> want = record_limit_events(tracer);

  const std::vector<obs::TraceEvent> got = tracer.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].cat, want[i].cat);
    EXPECT_EQ(got[i].detail, want[i].detail);
    EXPECT_EQ(got[i].ts_ns, want[i].ts_ns);
    EXPECT_EQ(got[i].dur_ns, want[i].dur_ns);
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
  }
}

// The same events through a flight dump: dump() keeps the ring's packed
// slots and bundles() unpacks and resolves them on read. Each bundle event
// must equal snapshot() of the ring taken at dump time, and carry the
// recorded values. A bundle has no duration field (its JSON never had
// one); the packed copy's dur_ns is checked through snapshot() above.
TEST(ObsFlight, PackedDumpRoundTripsIdLimitsTypesAndWideFields) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 16;
  obs::FlightRecorder flight(1, cfg);
  obs::EventTracer& ring = flight.shard_ring(0);
  const std::vector<obs::TraceEvent> want = record_limit_events(ring);
  const std::vector<obs::EventTracer::Resolved> at_dump =
      ring.snapshot_resolved();
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kManual, 0, "limits"));
  // Overwrite the whole ring: the bundle must not see it.
  const obs::EventKey late = ring.key("late", "late");
  for (uint64_t i = 0; i < 2 * ring.capacity(); ++i) {
    ring.record(obs::EventType::kIoAccess, late, i, i, i);
  }

  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  const std::vector<obs::FlightBundle::Event>& got = bundles[0].events;
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(at_dump.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    const obs::EventTracer::Resolved& r = at_dump[i];
    EXPECT_EQ(got[i].type, obs::event_type_name(r.ev.type));
    EXPECT_EQ(got[i].name, r.name);
    EXPECT_EQ(got[i].cat, r.cat);
    EXPECT_EQ(got[i].detail, r.detail);
    EXPECT_EQ(got[i].ts_ns, r.ev.ts_ns);
    EXPECT_EQ(got[i].a, r.ev.a);
    EXPECT_EQ(got[i].b, r.ev.b);

    EXPECT_EQ(got[i].type, obs::event_type_name(want[i].type));
    EXPECT_EQ(got[i].name, ring.string_at(want[i].name));
    EXPECT_EQ(got[i].cat, ring.string_at(want[i].cat));
    EXPECT_EQ(got[i].detail, ring.string_at(want[i].detail));
    EXPECT_EQ(got[i].ts_ns, want[i].ts_ns);
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
  }
}

// A reused Frozen is overwritten in place (resized, assigned by index,
// bucket writes skipped for entries empty before and after). Through
// every case that moves entries around, it must render exactly what a
// fresh freeze renders, and keep the State invariant (count 0 => zero
// buckets) that the skip relies on.
TEST(ObsMetrics, RefreezeInPlaceMatchesFreshFreeze) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Frozen reused;
  auto expect_matches_fresh = [&reused](const obs::MetricsRegistry& r) {
    r.freeze(reused);
    obs::MetricsRegistry::Frozen fresh;
    r.freeze(fresh);
    EXPECT_EQ(reused.to_json(), fresh.to_json());
    ASSERT_EQ(reused.histograms.size(), fresh.histograms.size());
    for (size_t i = 0; i < fresh.histograms.size(); ++i) {
      SCOPED_TRACE(*fresh.histograms[i].key);
      const obs::Histogram::State& got = reused.histograms[i].state;
      const obs::Histogram::State& want = fresh.histograms[i].state;
      EXPECT_EQ(reused.histograms[i].key, fresh.histograms[i].key);
      EXPECT_TRUE(std::ranges::equal(got.buckets, want.buckets));
      EXPECT_EQ(got.count, want.count);
      if (got.count == 0) {
        EXPECT_TRUE(std::ranges::all_of(got.buckets,
                                        [](uint64_t b) { return b == 0; }));
      }
    }
  };

  reg.counter("m_b").inc(2);
  reg.counter("m_c").inc(3);
  reg.gauge("g_b").set(-4);
  reg.histogram("h_c").record(700);  // nonempty
  reg.histogram("h_d");              // empty
  {
    SCOPED_TRACE("first freeze");
    expect_matches_fresh(reg);
  }

  // New series sorting before every existing key: each family shifts by
  // one, so the empty newcomer h_a lands on the entry that held h_c's
  // buckets, and h_c on the one that held empty h_d.
  reg.counter("m_a").inc(1);
  reg.gauge("g_a").set(9);
  reg.histogram("h_a");
  {
    SCOPED_TRACE("series inserted before existing keys");
    expect_matches_fresh(reg);
  }

  // Empty to nonempty, on an entry that was empty when reused.
  reg.histogram("h_d").record(3);
  reg.histogram("h_d").record(1u << 20);
  {
    SCOPED_TRACE("histogram turned nonempty");
    expect_matches_fresh(reg);
  }

  // A second registry with fewer series, nonempty where `reg` was empty
  // and empty where it was not.
  obs::MetricsRegistry smaller;
  smaller.counter("m_z").inc(7);
  smaller.histogram("h_a").record(5);
  smaller.histogram("h_b");
  {
    SCOPED_TRACE("second, smaller registry");
    expect_matches_fresh(smaller);
    EXPECT_EQ(reused.counters.size(), 1u);
    EXPECT_TRUE(reused.gauges.empty());
    EXPECT_EQ(reused.histograms.size(), 2u);
  }
}

TEST(ObsHistogram, MergeSumsBucketsAndRaisesMax) {
  obs::Histogram a;
  obs::Histogram b;
  a.record(1);
  a.record(100);
  b.record(100);
  b.record(7000);
  obs::Histogram::State merged = a.state();
  const obs::Histogram::State source = b.state();
  merged.merge(source);
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum, 1u + 100 + 100 + 7000);
  EXPECT_EQ(merged.max, 7000u);
  EXPECT_EQ(merged.buckets[obs::Histogram::bucket_of(100)], 2u);
  // The source is untouched.
  EXPECT_EQ(source.count, 2u);
  EXPECT_EQ(b.count(), 2u);
}

// Concurrency smoke for the relaxed-atomic ring: four writers hammer a
// small ring (forcing wraps) while a reader keeps snapshotting. The
// assertions are about accounting (recorded == kept + dropped, every
// retained event is one that was written); under the TSan preset this is
// also the tracer's data-race gate.
TEST(ObsTracer, ConcurrentRecordAndSnapshotKeepAccountingCoherent) {
  obs::EventTracer tracer(64);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 10000;

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_acquire)) {
      const std::vector<obs::TraceEvent> events = tracer.snapshot();
      for (const obs::TraceEvent& ev : events) {
        // Interned ids resolve to the strings some writer recorded.
        const std::string name = tracer.string_at(ev.name);
        EXPECT_TRUE(name.empty() || name == "fault_outcome");
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        tracer.record(obs::EventType::kFaultOutcome, "fault_outcome", "fdc",
                      "contained", /*a=*/static_cast<uint64_t>(w), /*b=*/i);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(tracer.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(tracer.size(), tracer.capacity());
  EXPECT_EQ(tracer.dropped(), tracer.recorded() - tracer.capacity());
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  for (const obs::TraceEvent& ev : events) {
    EXPECT_LT(ev.a, static_cast<uint64_t>(kWriters));
    EXPECT_LT(ev.b, kPerWriter);
  }
}

TEST(ObsTracer, ChromeExportIsWellFormedJson) {
  obs::EventTracer tracer(64);
  tracer.begin_phase("trace_pass", "fdc");
  tracer.record(obs::EventType::kViolation, "violation", "fdc",
                "parameter check", /*a=*/3, /*b=*/0);
  tracer.end_phase("trace_pass", "fdc");

  const obs::JsonValue doc = obs::json_parse(tracer.to_chrome_json());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[0].find("ph")->str, "B");
  EXPECT_EQ(events->array[2].find("ph")->str, "E");
  const obs::JsonValue& violation = events->array[1];
  EXPECT_EQ(violation.find("name")->str, "violation");
  EXPECT_EQ(violation.find("cat")->str, "fdc");
  const obs::JsonValue* args = violation.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("strategy")->str, "parameter check");
  // Timestamps are monotonic within the export.
  EXPECT_LE(events->array[0].find("ts")->number,
            events->array[2].find("ts")->number);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse(""), DecodeError);
  EXPECT_THROW(obs::json_parse("{"), DecodeError);
  EXPECT_THROW(obs::json_parse("{\"a\":}"), DecodeError);
  EXPECT_THROW(obs::json_parse("[1,]"), DecodeError);
  EXPECT_THROW(obs::json_parse("\"unterminated"), DecodeError);
  EXPECT_THROW(obs::json_parse("{} trailing"), DecodeError);

  const obs::JsonValue v =
      obs::json_parse(R"({"s":"a\"b","n":-2.5e1,"t":true,"x":null,"a":[1]})");
  EXPECT_EQ(v.find("s")->str, "a\"b");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -25.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_TRUE(v.find("x")->is_null());
  ASSERT_EQ(v.find("a")->array.size(), 1u);
}

TEST(ObsTimer, ScopedTimerIsGatedByTheGlobalSwitch) {
  ObsGlobalGuard guard;
  obs::Histogram h;
  obs::set_timing_enabled(false);
  { obs::ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 0u);  // off: no clock reads, no samples
  obs::set_timing_enabled(true);
  { obs::ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

// Bus and DMA counters -----------------------------------------------------

/// Vetoes, or throws from, before_access on demand.
struct VetoProxy final : IoProxy {
  bool allow = true;
  bool fault = false;
  bool before_access(Device& /*device*/, const IoAccess& /*io*/) override {
    if (fault) {
      throw std::runtime_error("proxy contract violation");
    }
    return allow;
  }
};

/// One pass of drive_every_path() adds this much to each bus count.
constexpr uint64_t kPathAccesses = 8;
constexpr uint64_t kPathBlocked = 4;
constexpr uint64_t kPathProxyFaults = 1;

/// Drives `bus` (the FDC mapped at its base port, `proxy` installed)
/// through every accounting path `passes` times: a mapped read and write,
/// an unmapped read and write, a vetoed write, a read whose proxy throws,
/// and a read and write while the device is halted.
void drive_every_path(IoBus& bus, FdcDevice& fdc, VetoProxy& proxy,
                      int passes) {
  const uint64_t dor = FdcDevice::kBasePort + 2;
  const uint64_t msr = FdcDevice::kBasePort + 4;
  const uint64_t unmapped = 0x80;
  for (int i = 0; i < passes; ++i) {
    bus.read(IoSpace::kPio, msr, 1);
    bus.write(IoSpace::kPio, dor, 1, 0x0c);
    bus.read(IoSpace::kPio, unmapped, 1);
    bus.write(IoSpace::kPio, unmapped, 1, 0);
    proxy.allow = false;
    bus.write(IoSpace::kPio, dor, 1, 0x0c);
    proxy.allow = true;
    proxy.fault = true;
    bus.read(IoSpace::kPio, msr, 1);
    proxy.fault = false;
    fdc.set_halted(true);
    bus.read(IoSpace::kPio, msr, 1);
    bus.write(IoSpace::kPio, dor, 1, 0x0c);
    fdc.set_halted(false);
  }
}

size_t series_count(const obs::MetricsRegistry& reg) {
  obs::MetricsRegistry::Frozen s;
  reg.freeze(s);
  return s.counters.size() + s.gauges.size() + s.histograms.size();
}

TEST(ObsBus, AccessAndDmaPathsTouchNoGlobalRegistryOrTracer) {
  ObsGlobalGuard guard;
  obs::EventTracer tracer(1 << 10);
  obs::set_tracer(&tracer);
  const size_t series_before = series_count(obs::metrics());

  FdcDevice fdc_a;
  FdcDevice fdc_b;
  IoBus bus_a;
  IoBus bus_b;
  VetoProxy proxy_a;
  VetoProxy proxy_b;
  bus_a.map(IoSpace::kPio, FdcDevice::kBasePort, FdcDevice::kPortSpan, &fdc_a);
  bus_b.map(IoSpace::kPio, FdcDevice::kBasePort, FdcDevice::kPortSpan, &fdc_b);
  bus_a.set_proxy(&proxy_a);
  bus_b.set_proxy(&proxy_b);
  drive_every_path(bus_a, fdc_a, proxy_a, 2);
  drive_every_path(bus_b, fdc_b, proxy_b, 1);

  GuestMemory mem(4096);
  DmaEngine dma(&mem);
  std::vector<uint8_t> buf(64, 0x5a);
  EXPECT_TRUE(dma.to_guest(0x100, buf));
  EXPECT_TRUE(dma.from_guest(0x100, buf));
  EXPECT_EQ(dma.transfer_count(), 2u);

  // The counts live on the instances...
  EXPECT_EQ(bus_a.access_count(), 2 * kPathAccesses);
  EXPECT_EQ(bus_b.access_count(), kPathAccesses);
  // ...and nothing on the way registered a series or recorded an event.
  EXPECT_EQ(series_count(obs::metrics()), series_before);
  obs::MetricsRegistry::Frozen frozen;
  obs::metrics().freeze(frozen);
  for (const auto& c : frozen.counters) {
    EXPECT_FALSE(c.key->starts_with("bus_") || c.key->starts_with("dma_"))
        << *c.key;
  }
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(ObsBus, PublishMetricsExportsEachBusUnderItsOwnLabel) {
  FdcDevice fdc_a;
  FdcDevice fdc_b;
  IoBus bus_a;
  IoBus bus_b;
  VetoProxy proxy_a;
  VetoProxy proxy_b;
  bus_a.map(IoSpace::kPio, FdcDevice::kBasePort, FdcDevice::kPortSpan, &fdc_a);
  bus_b.map(IoSpace::kPio, FdcDevice::kBasePort, FdcDevice::kPortSpan, &fdc_b);
  bus_a.set_proxy(&proxy_a);
  bus_b.set_proxy(&proxy_b);
  drive_every_path(bus_a, fdc_a, proxy_a, 3);
  drive_every_path(bus_b, fdc_b, proxy_b, 1);
  ASSERT_EQ(bus_a.access_count(), 3 * kPathAccesses);
  ASSERT_EQ(bus_a.blocked_count(), 3 * kPathBlocked);
  ASSERT_EQ(bus_a.proxy_fault_count(), 3 * kPathProxyFaults);
  ASSERT_EQ(bus_b.access_count(), kPathAccesses);
  ASSERT_EQ(bus_b.blocked_count(), kPathBlocked);
  ASSERT_EQ(bus_b.proxy_fault_count(), kPathProxyFaults);

  obs::MetricsRegistry reg;
  auto expect_exported = [&](const IoBus& bus, const std::string& name) {
    const std::string labels = obs::label({{"bus", name}});
    const struct {
      const char* series;
      uint64_t value;
    } want[] = {{"bus_accesses_total", bus.access_count()},
                {"bus_blocked_total", bus.blocked_count()},
                {"bus_proxy_faults_total", bus.proxy_fault_count()}};
    for (const auto& w : want) {
      const obs::Gauge* g = reg.find_gauge(w.series, labels);
      ASSERT_NE(g, nullptr) << w.series << "{" << labels << "}";
      EXPECT_EQ(g->value(), static_cast<int64_t>(w.value))
          << w.series << "{" << labels << "}";
    }
  };
  bus_a.publish_metrics(reg, "vm0");
  bus_b.publish_metrics(reg, "vm1");
  expect_exported(bus_a, "vm0");
  expect_exported(bus_b, "vm1");
  EXPECT_EQ(series_count(reg), 6u);  // three gauges per bus, nothing else

  // Snapshot semantics: a later publish overwrites, it does not add.
  drive_every_path(bus_b, fdc_b, proxy_b, 1);
  bus_b.publish_metrics(reg, "vm1");
  expect_exported(bus_b, "vm1");
  expect_exported(bus_a, "vm0");
  EXPECT_EQ(series_count(reg), 6u);
  EXPECT_NE(reg.to_prometheus().find(
                "sedspec_bus_accesses_total{bus=\"vm1\"} 16"),
            std::string::npos);
}

TEST(ObsCheckerIntegration, BlockedExploitEmitsViolationEventWithStrategy) {
  ObsGlobalGuard guard;
  obs::EventTracer tracer(1 << 10);
  obs::set_tracer(&tracer);
  obs::set_timing_enabled(true);

  // Parameter-only checker on a VENOM-vulnerable FDC.
  FdcDevice fdc{FdcDevice::Vulns{.cve_2015_3456 = true}};
  IoBus bus;
  bus.map(IoSpace::kPio, FdcDevice::kBasePort, FdcDevice::kPortSpan, &fdc);
  const spec::EsCfg cfg = pipeline::build_spec(fdc, [&] {
    guest::FdcDriver drv(&bus);
    drv.reset();
    std::vector<uint8_t> sector(512, 0x42);
    drv.write_sector(0, 0, 1, sector);
  });
  checker::CheckerConfig config;
  config.enable_indirect = false;
  config.enable_conditional = false;
  auto checker = pipeline::deploy(cfg, fdc, bus, config);

  guest::FdcDriver drv(&bus);
  drv.write_fifo(FdcDevice::kCmdDriveSpec);
  for (int i = 0; i < 700; ++i) {
    drv.write_fifo(0x01);
  }
  EXPECT_TRUE(fdc.halted());
  EXPECT_TRUE(fdc.incidents().empty());

  bool found = false;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (e.type == obs::EventType::kViolation) {
      EXPECT_EQ(tracer.string_at(e.name), "violation");
      EXPECT_EQ(tracer.string_at(e.cat), "fdc");
      EXPECT_EQ(tracer.string_at(e.detail), "parameter check");
      found = true;
    }
  }
  EXPECT_TRUE(found) << "blocked exploit produced no violation event";

  // The per-strategy latency histogram was populated (timing was on) under
  // the strategies="parameter" label.
  const obs::Histogram* hist = obs::metrics().find_histogram(
      "checker_check_latency_ns",
      obs::label({{"device", "fdc"}, {"strategies", "parameter"}}));
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->count(), 0u);
  EXPECT_GT(checker->stats().check_ns, 0u);
}

// Flight ring --------------------------------------------------------------

TEST(ObsFlightRing, CheckerRecordsEveryRoundWithoutInterning) {
  auto wl = guest::make_workload("fdc");
  wl->build_and_deploy();
  checker::EsChecker& chk = *wl->checker();
  obs::EventTracer ring(1 << 16);
  checker::CheckerHooks hooks;
  hooks.local_tracer = &ring;
  chk.attach(std::move(hooks));
  // attach() interned everything the checker will ever record.
  const size_t interned = ring.interned();
  chk.reset_stats();

  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    wl->common_operation(guest::InteractionMode::kRandom, rng);
  }
  const checker::CheckerStats& stats = chk.stats();
  ASSERT_GT(stats.rounds, 100u);
  EXPECT_EQ(stats.rounds, stats.clean_rounds);
  EXPECT_EQ(ring.recorded(), stats.rounds);  // one event per round
  EXPECT_EQ(ring.interned(), interned);

  uint64_t steps = 0;
  for (const obs::EventTracer::Resolved& r : ring.snapshot_resolved()) {
    EXPECT_EQ(r.ev.type, obs::EventType::kIoAccess);
    EXPECT_TRUE(r.name == "io_read" || r.name == "io_write") << r.name;
    EXPECT_EQ(r.cat, "fdc");
    EXPECT_TRUE(r.detail.empty());
    steps += r.ev.b;
  }
  EXPECT_EQ(steps, stats.total_steps);
}

// Keys are per tracer: re-attaching to another ring (whose intern table
// assigns different ids) must re-resolve them, and detaching must stop
// recording.
TEST(ObsFlightRing, ReattachResolvesKeysForTheNewRing) {
  auto wl = guest::make_workload("fdc");
  checker::CheckerConfig config;
  config.monitor_only = true;  // rare operations warn, the device runs on
  wl->build_and_deploy(config);
  checker::EsChecker& chk = *wl->checker();

  obs::EventTracer first(1 << 12);
  obs::EventTracer second(1 << 12);
  for (const char* s : {"a", "b", "c", "d", "e"}) {
    (void)second.intern(s);  // shift every id the checker will resolve
  }
  Rng rng(11);
  checker::CheckerHooks hooks;
  hooks.local_tracer = &first;
  chk.attach(hooks);
  wl->rare_operation(rng);
  const uint64_t in_first = first.recorded();
  ASSERT_GT(in_first, 0u);

  hooks.local_tracer = &second;
  chk.attach(hooks);
  wl->rare_operation(rng);
  EXPECT_EQ(first.recorded(), in_first);

  for (obs::EventTracer* ring : {&first, &second}) {
    bool saw_violation = false;
    for (const obs::EventTracer::Resolved& r : ring->snapshot_resolved()) {
      EXPECT_EQ(r.cat, "fdc");
      if (r.ev.type == obs::EventType::kViolation) {
        EXPECT_EQ(r.name, "violation");
        bool strategy = false;
        for (const checker::Strategy s :
             {checker::Strategy::kParameter, checker::Strategy::kIndirectJump,
              checker::Strategy::kConditionalJump}) {
          strategy = strategy || r.detail == checker::strategy_name(s);
        }
        EXPECT_TRUE(strategy) << r.detail;
        saw_violation = true;
      } else {
        EXPECT_EQ(r.ev.type, obs::EventType::kIoAccess);
        EXPECT_TRUE(r.name == "io_read" || r.name == "io_write") << r.name;
      }
    }
    EXPECT_TRUE(saw_violation);
  }

  chk.attach({});
  const uint64_t in_second = second.recorded();
  wl->common_operation(guest::InteractionMode::kRandom, rng);
  EXPECT_EQ(second.recorded(), in_second);
}

TEST(ObsFlightRing, ContainedFaultRecordsQuarantineWithPolicy) {
  auto wl = guest::make_workload("sdhci");
  wl->build_and_deploy();
  checker::EsChecker& chk = *wl->checker();
  obs::EventTracer ring(1 << 12);
  checker::CheckerHooks hooks;
  hooks.local_tracer = &ring;
  hooks.fault_hook = [n = 0](StateArena&) mutable {
    checker::InternalFault f;
    f.throw_in_traversal = ++n == 3;
    return f;
  };
  chk.attach(std::move(hooks));
  Rng rng(3);
  wl->common_operation(guest::InteractionMode::kSequential, rng);
  ASSERT_EQ(chk.stats().quarantines, 1u);

  int quarantines = 0;
  for (const obs::EventTracer::Resolved& r : ring.snapshot_resolved()) {
    if (r.ev.type == obs::EventType::kQuarantine) {
      EXPECT_EQ(r.name, "quarantine");
      EXPECT_EQ(r.cat, "sdhci");
      EXPECT_EQ(r.detail, "fail-closed");
      ++quarantines;
    }
  }
  EXPECT_EQ(quarantines, 1);
}

// The per-round record follows the timing gate: with timing off a round
// reads no clock and its event carries ts_ns 0 (ordered by ring position),
// while the rare events (violation, quarantine) stay timed; with timing on
// round events carry the latency probe's start time.
TEST(ObsFlightRing, RoundRecordsFollowTheTimingGate) {
  ObsGlobalGuard guard;  // restores the timing switch
  auto wl = guest::make_workload("fdc");
  checker::CheckerConfig config;
  config.monitor_only = true;  // rare operations warn, the device runs on
  wl->build_and_deploy(config);
  checker::EsChecker& chk = *wl->checker();
  obs::EventTracer ring(1 << 16);
  checker::CheckerHooks hooks;
  hooks.local_tracer = &ring;
  chk.attach(hooks);
  Rng rng(7);

  obs::set_timing_enabled(false);
  wl->common_operation(guest::InteractionMode::kRandom, rng);
  wl->rare_operation(rng);
  // One contained fault (fail-closed by default): a quarantine event.
  hooks.fault_hook = [n = 0](StateArena&) mutable {
    checker::InternalFault f;
    f.throw_in_traversal = ++n == 3;
    return f;
  };
  chk.attach(hooks);
  wl->common_operation(guest::InteractionMode::kSequential, rng);
  ASSERT_EQ(chk.stats().quarantines, 1u);

  size_t rounds = 0;
  size_t violations = 0;
  size_t quarantines = 0;
  uint64_t last_rare_ts = 0;
  for (const obs::TraceEvent& ev : ring.snapshot()) {
    if (ev.type == obs::EventType::kIoAccess) {
      EXPECT_EQ(ev.ts_ns, 0u);
      ++rounds;
      continue;
    }
    violations += ev.type == obs::EventType::kViolation;
    quarantines += ev.type == obs::EventType::kQuarantine;
    EXPECT_GT(ev.ts_ns, 0u) << obs::event_type_name(ev.type);
    EXPECT_GE(ev.ts_ns, last_rare_ts);
    last_rare_ts = ev.ts_ns;
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_GT(violations, 0u);
  EXPECT_EQ(quarantines, 1u);

  ring.clear();
  hooks.fault_hook = nullptr;
  chk.attach(hooks);
  obs::set_timing_enabled(true);
  wl->common_operation(guest::InteractionMode::kRandom, rng);
  wl->rare_operation(rng);

  rounds = 0;
  uint64_t last_ts = 0;
  for (const obs::TraceEvent& ev : ring.snapshot()) {
    EXPECT_GE(ev.ts_ns, last_ts);  // every event, rounds and rare alike
    last_ts = ev.ts_ns;
    if (ev.type == obs::EventType::kIoAccess) {
      EXPECT_GT(ev.ts_ns, 0u);
      ++rounds;
    }
  }
  EXPECT_GT(rounds, 0u);
}

}  // namespace
}  // namespace sedspec
