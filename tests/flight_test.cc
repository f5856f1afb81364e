// Flight recorder, Prometheus exposition correctness (escaping + family
// grouping, verified by parsing the text back), and histogram
// merge/quantile edge cases read through Histogram::State.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sedspec {
namespace {

// Flight recorder -----------------------------------------------------------

TEST(ObsFlight, DumpFreezesRingAndDedupsWithinEpoch) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 8;
  cfg.max_bundles = 4;
  obs::FlightRecorder flight(2, cfg);

  obs::EventTracer& ring = flight.shard_ring(0);
  ring.record(obs::EventType::kViolation, "round", "fdc", "ShadowCheck",
              /*a=*/0x3f2, /*b=*/7);

  flight.set_epoch(41);
  EXPECT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 0, "fdc"));
  // Same (shard, trigger) in the same epoch: a violation storm must not
  // produce a bundle per report.
  EXPECT_FALSE(flight.dump(obs::FlightTrigger::kViolation, 0, "fdc"));
  // Different trigger or different shard still records.
  EXPECT_TRUE(flight.dump(obs::FlightTrigger::kQuarantine, 0, "fdc"));
  EXPECT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 1, "usb-ehci"));
  // Next window reopens the (shard, trigger) slot.
  flight.set_epoch(42);
  EXPECT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 0, "fdc"));

  EXPECT_EQ(flight.dumps(), 4u);
  EXPECT_EQ(flight.suppressed(), 1u);

  std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 4u);
  const obs::FlightBundle& b = bundles.front();
  EXPECT_EQ(b.trigger, obs::FlightTrigger::kViolation);
  EXPECT_EQ(b.shard, 0u);
  EXPECT_EQ(b.epoch, 41u);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_EQ(b.events[0].type, "violation");
  EXPECT_EQ(b.events[0].detail, "ShadowCheck");
  EXPECT_EQ(b.events[0].a, 0x3f2u);
}

TEST(ObsFlight, BundleJsonIsSelfContainedAndParsesBack) {
  obs::FlightRecorder flight(1);
  flight.shard_ring(0).record(obs::EventType::kQuarantine, "contain", "sdhci",
                              "fail_closed");
  flight.set_epoch(7);
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kWatchdog, 0, "sdhci"));

  const obs::JsonValue doc = obs::json_parse(flight.to_json());
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* bundles = doc.find("bundles");
  ASSERT_NE(bundles, nullptr);
  ASSERT_EQ(bundles->array.size(), 1u);
  const obs::JsonValue& b = bundles->array[0];
  EXPECT_EQ(b.find("trigger")->str, "watchdog");
  EXPECT_EQ(b.find("reason")->str, "sdhci");
  EXPECT_EQ(b.find("epoch")->number, 7.0);
  // Embedded metrics are nested JSON, not a string: the bundle must be
  // explorable without a second parse.
  const obs::JsonValue* metrics = b.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
  const obs::JsonValue* events = b.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].find("type")->str, "quarantine");
}

TEST(ObsFlight, BundleRetentionIsBounded) {
  obs::FlightConfig cfg;
  cfg.max_bundles = 3;
  obs::FlightRecorder flight(1, cfg);
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    flight.set_epoch(epoch);
    ASSERT_TRUE(flight.dump(obs::FlightTrigger::kManual, 0, "probe"));
  }
  EXPECT_EQ(flight.dumps(), 10u);
  std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 3u);  // oldest evicted
  // The slot ring has wrapped three times (10 dumps into 3 slots); readers
  // still see oldest-first order with monotone, gap-free sequences.
  for (size_t i = 0; i < bundles.size(); ++i) {
    EXPECT_EQ(bundles[i].epoch, 7u + i);
    EXPECT_EQ(bundles[i].sequence, 7u + i);
  }
}

/// The value of counter `name` in a bundle's metrics JSON, if present.
std::optional<double> frozen_counter(const obs::FlightBundle& b,
                                     const std::string& name) {
  const obs::JsonValue doc = obs::json_parse(b.metrics_json);
  for (const obs::JsonValue& c : doc.find("counters")->array) {
    if (c.find("name")->str == name) {
      return c.find("value")->number;
    }
  }
  return std::nullopt;
}

TEST(ObsFlight, MetricsAreFrozenAtDumpTime) {
  obs::Counter& probe = obs::metrics().counter("flight_freeze_probe_total");
  probe.inc(5);
  const uint64_t frozen = probe.value();
  obs::FlightRecorder flight(1);
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kManual, 0, "freeze"));

  // Bumped and registered after the dump: neither may leak into the
  // bundle, although the bundle is rendered only now. The registry never
  // erases a series, so the late names are new on every run of this test
  // in the process (--gtest_repeat).
  static int run = 0;
  const std::string late = "flight_freeze_late_" + std::to_string(run++);
  probe.inc(100);
  obs::metrics().counter(late + "_total").inc();
  obs::metrics().histogram(late + "_ns").record(7);

  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(frozen_counter(bundles[0], "flight_freeze_probe_total"),
            static_cast<double>(frozen));
  EXPECT_FALSE(frozen_counter(bundles[0], late + "_total"));
  EXPECT_EQ(bundles[0].metrics_json.find(late + "_ns"), std::string::npos);
}

TEST(ObsFlight, EventsAreFrozenAtDumpTime) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 8;
  obs::FlightRecorder flight(1, cfg);
  obs::EventTracer& ring = flight.shard_ring(0);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.record(obs::EventType::kIoAccess, "io_read", "fdc", "", 0x3f0 + i, i);
  }
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 0, "fdc"));
  const std::string before = flight.to_json();

  // Wrap the ring several times, with new strings, after the dump.
  for (uint64_t i = 0; i < 3 * ring.capacity(); ++i) {
    ring.record(obs::EventType::kViolation, "late", "sdhci", "late-detail",
                i, i);
  }
  EXPECT_EQ(flight.to_json(), before);
  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  ASSERT_EQ(bundles[0].events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    const obs::FlightBundle::Event& e = bundles[0].events[i];
    EXPECT_EQ(e.type, "io_access");
    EXPECT_EQ(e.name, "io_read");
    EXPECT_EQ(e.cat, "fdc");
    EXPECT_EQ(e.a, 0x3f0 + i);
    EXPECT_EQ(e.b, i);
  }
}

// A checker's round events are untimed (ts_ns 0) while timing is off and
// sit in the ring beside timed rare events; a bundle over such a ring
// keeps ring order and renders both kinds as parseable JSON.
TEST(ObsFlight, UntimedRoundEventsRenderInBundles) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 16;
  obs::FlightRecorder flight(1, cfg);
  obs::EventTracer& ring = flight.shard_ring(0);
  const obs::EventKey k = ring.key("io_write", "fdc");
  for (uint64_t i = 0; i < 6; ++i) {
    ring.record(obs::EventType::kIoAccess, k, /*ts_ns=*/0, 0x3f5, i);
    if (i == 2) {
      ring.record(obs::EventType::kViolation, "violation", "fdc",
                  "parameter check", /*a=*/0x3f5);
    }
  }
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 0, "fdc"));

  const obs::JsonValue doc = obs::json_parse(flight.to_json());
  const obs::JsonValue* bundles = doc.find("bundles");
  ASSERT_NE(bundles, nullptr);
  ASSERT_EQ(bundles->array.size(), 1u);
  const obs::JsonValue* events = bundles->array[0].find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 7u);
  double round = 0;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const obs::JsonValue& e = events->array[i];
    if (i == 3) {
      EXPECT_EQ(e.find("type")->str, "violation");
      EXPECT_EQ(e.find("detail")->str, "parameter check");
      EXPECT_GT(e.find("ts_ns")->number, 0.0);
      continue;
    }
    EXPECT_EQ(e.find("type")->str, "io_access");
    EXPECT_EQ(e.find("name")->str, "io_write");
    EXPECT_EQ(e.find("ts_ns")->number, 0.0);
    EXPECT_EQ(e.find("b")->number, round);  // ring order, not clock order
    ++round;
  }
}

TEST(ObsFlight, DumpAndRenderWhileShardsRecord) {
  // Shard threads record into their rings and register metric series
  // while this thread dumps (copying rings, freezing the registry) and
  // renders bundles (reading frozen keys outside the registry lock) for a
  // fixed wall time, so the dumps overlap the writers throughout. The TSan
  // lane runs this; in other builds it checks the bundles parse. Each ring
  // has one writer, so its recorded() count is exact, and a dump that
  // wrote a ring's head would lose records the writer counted.
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 64;
  cfg.max_bundles = 4;
  obs::FlightRecorder flight(2, cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> shards;
  uint64_t written[2] = {0, 0};
  for (size_t shard = 0; shard < 2; ++shard) {
    shards.emplace_back([&flight, &stop, &written, shard] {
      obs::EventTracer& ring = flight.shard_ring(shard);
      const obs::EventKey k = ring.key("io_read", "fdc");
      uint64_t i = 0;
      for (; !stop.load(std::memory_order_relaxed); ++i) {
        ring.record(obs::EventType::kIoAccess, k, /*ts_ns=*/0, i, shard);
        if (i % 64 == 0) {
          obs::metrics()
              .counter("flight_race_total",
                       obs::label({{"n", std::to_string(i / 64 % 16)}}))
              .inc();
        }
      }
      written[shard] = i;
    });
  }
  while (flight.shard_ring(0).recorded() < 64 ||
         flight.shard_ring(1).recorded() < 64) {
    std::this_thread::yield();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  uint64_t dumps = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    flight.set_epoch(dumps);  // a new epoch per dump: none is deduped
    const bool dumped =
        flight.dump(obs::FlightTrigger::kViolation, dumps % 2, "r");
    EXPECT_TRUE(dumped);
    if (!dumped) {
      break;
    }
    if (dumps % 20 == 0) {
      EXPECT_TRUE(obs::json_parse(flight.to_json()).is_object());
    }
    ++dumps;
  }
  stop.store(true);
  for (std::thread& t : shards) {
    t.join();
  }
  EXPECT_EQ(flight.shard_ring(0).recorded(), written[0]);
  EXPECT_EQ(flight.shard_ring(1).recorded(), written[1]);
  EXPECT_EQ(flight.dumps(), dumps);
  ASSERT_GE(dumps, cfg.max_bundles);
  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), cfg.max_bundles);
  EXPECT_EQ(bundles.back().sequence, dumps - 1);
  for (const obs::FlightBundle& b : bundles) {
    EXPECT_EQ(b.events.size(), 64u);
    EXPECT_TRUE(obs::json_parse(b.metrics_json).is_object());
  }
}

// Deterministic work count: once every slot has been used, a dump with no
// new metric series copies raw values into preallocated storage and
// allocates nothing. Counted by the operator-new
// hook below, armed on this thread only around the call.
thread_local bool t_count_allocs = false;
thread_local uint64_t t_allocs = 0;

TEST(ObsFlight, WarmDumpMakesNoHeapAllocations) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 64;
  cfg.max_bundles = 2;
  obs::FlightRecorder flight(2, cfg);
  obs::metrics().counter("flight_alloc_probe_total").inc();
  obs::metrics().histogram("flight_alloc_probe_ns").record(42);
  for (size_t shard = 0; shard < 2; ++shard) {
    obs::EventTracer& ring = flight.shard_ring(shard);
    const obs::EventKey k = ring.key("io_write", "pcnet");
    for (uint64_t i = 0; i < 200; ++i) {  // full, wrapped rings
      ring.record(obs::EventType::kIoAccess, k, /*ts_ns=*/0, i, i);
    }
  }
  // Warm both slots.
  flight.set_epoch(1);
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 0, "pcnet"));
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kViolation, 1, "pcnet"));

  flight.set_epoch(2);
  t_allocs = 0;
  t_count_allocs = true;
  const bool dumped = flight.dump(obs::FlightTrigger::kViolation, 1, "pcnet");
  t_count_allocs = false;
  ASSERT_TRUE(dumped);
  EXPECT_EQ(t_allocs, 0u);

  // The hook does count: rendering a bundle allocates.
  t_count_allocs = true;
  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  t_count_allocs = false;
  EXPECT_GT(t_allocs, 0u);
  ASSERT_EQ(bundles.size(), 2u);
  EXPECT_EQ(bundles.back().sequence, 2u);
  EXPECT_EQ(bundles.back().events.size(), 64u);
}

// Prometheus exposition -----------------------------------------------------

/// Minimal exposition-format reader: validates overall line structure,
/// unescapes label values, and records family-header order. This is the
/// parse-back check for the emitter — a scrape consumer's view.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // unescaped
};

bool prom_parse(const std::string& text, std::vector<PromSample>& samples,
                std::vector<std::string>& type_headers,
                std::vector<std::string>& help_headers) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      type_headers.push_back(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      help_headers.push_back(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    PromSample s;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') {
      s.name += line[i++];
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::string key;
        while (i < line.size() && line[i] != '=') {
          key += line[i++];
        }
        if (i + 1 >= line.size() || line[i + 1] != '"') {
          return false;  // malformed: value must be quoted
        }
        i += 2;  // skip ="
        std::string value;
        bool closed = false;
        while (i < line.size()) {
          const char c = line[i];
          if (c == '\\') {
            if (i + 1 >= line.size()) {
              return false;  // dangling escape
            }
            const char esc = line[i + 1];
            if (esc == '\\') {
              value += '\\';
            } else if (esc == '"') {
              value += '"';
            } else if (esc == 'n') {
              value += '\n';
            } else {
              return false;  // unknown escape
            }
            i += 2;
            continue;
          }
          if (c == '"') {
            closed = true;
            ++i;
            break;
          }
          value += c;
          ++i;
        }
        if (!closed) {
          return false;  // unterminated label value (raw newline leaked?)
        }
        s.labels.emplace_back(std::move(key), std::move(value));
        if (i < line.size() && line[i] == ',') {
          ++i;
        }
      }
      if (i >= line.size() || line[i] != '}') {
        return false;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      return false;  // a sample line must carry a value
    }
    samples.push_back(std::move(s));
  }
  return true;
}

TEST(ObsPrometheus, LabelValuesAreEscapedAndRoundTrip) {
  obs::MetricsRegistry reg;
  const std::string hostile = "qu\"ote\\slash\nnewline";
  reg.counter("weird_total", obs::label({{"path", hostile}})).inc(3);

  const std::string text = reg.to_prometheus();
  // The raw newline must not survive into the exposition: every sample
  // line must parse on its own.
  std::vector<PromSample> samples;
  std::vector<std::string> types, helps;
  ASSERT_TRUE(prom_parse(text, samples, types, helps)) << text;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "sedspec_weird_total");
  ASSERT_EQ(samples[0].labels.size(), 1u);
  EXPECT_EQ(samples[0].labels[0].first, "path");
  // Unescaping on the consumer side recovers the original bytes.
  EXPECT_EQ(samples[0].labels[0].second, hostile);
}

TEST(ObsPrometheus, FamilyHeadersEmittedOncePerInterleavedSeries) {
  obs::MetricsRegistry reg;
  // Two families whose labeled series would interleave if the exposition
  // sorted on the full key without family grouping.
  for (const char* shard : {"0", "1", "2"}) {
    reg.counter("checked_total", obs::label({{"shard", shard}})).inc(1);
    reg.histogram("lat_ns", obs::label({{"shard", shard}})).record(100);
  }
  reg.set_help("checked_total", "Rounds checked.");

  std::vector<PromSample> samples;
  std::vector<std::string> types, helps;
  ASSERT_TRUE(prom_parse(reg.to_prometheus(), samples, types, helps));

  auto count_of = [](const std::vector<std::string>& v, const std::string& s) {
    size_t n = 0;
    for (const std::string& x : v) {
      n += x == s ? 1 : 0;
    }
    return n;
  };
  // One TYPE header per family despite three labeled series each.
  EXPECT_EQ(count_of(types, "sedspec_checked_total"), 1u);
  EXPECT_EQ(count_of(types, "sedspec_lat_ns"), 1u);
  EXPECT_EQ(count_of(types, "sedspec_lat_ns_max"), 1u);
  EXPECT_EQ(count_of(helps, "sedspec_checked_total"), 1u);

  // All of a family's samples are contiguous: once a family's name stops
  // appearing, it never reappears later in the stream. A summary family
  // owns its _sum/_count samples (they carry no TYPE of their own), so
  // fold those back onto the base family before checking contiguity.
  auto family_of = [&types](const std::string& name) {
    for (const std::string suffix : {"_sum", "_count"}) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        std::string base = name.substr(0, name.size() - suffix.size());
        if (std::find(types.begin(), types.end(), base) != types.end()) {
          return base;
        }
      }
    }
    return name;
  };
  std::vector<std::string> family_order;
  for (const PromSample& s : samples) {
    std::string fam = family_of(s.name);
    if (family_order.empty() || family_order.back() != fam) {
      family_order.push_back(std::move(fam));
    }
  }
  for (size_t i = 0; i < family_order.size(); ++i) {
    for (size_t j = i + 1; j < family_order.size(); ++j) {
      EXPECT_NE(family_order[i], family_order[j])
          << "family " << family_order[i] << " split into non-contiguous runs";
    }
  }
}

// Histogram edges -----------------------------------------------------------

TEST(ObsHistogramEdge, MergeOfEmptyWindowYieldsZeroQuantiles) {
  const obs::Histogram shard0;  // registered, no data
  const obs::Histogram shard1;
  obs::Histogram::State merged = shard0.state();
  merged.merge(shard1.state());
  EXPECT_EQ(merged.count, 0u);
  EXPECT_EQ(merged.quantile(0.50), 0u);
  EXPECT_EQ(merged.quantile(0.999), 0u);
}

TEST(ObsHistogramEdge, SingleBucketSaturationCollapsesAllQuantiles) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.record(777);  // one bucket, and max pins the real upper bound
  }
  const obs::Histogram::State s = h.state();
  // All mass in one bucket: every quantile resolves to the same clamped
  // bound, and the cumulative max (777) tightens the log2 upper edge
  // (1023).
  EXPECT_EQ(s.quantile(0.50), 777u);
  EXPECT_EQ(s.quantile(0.90), 777u);
  EXPECT_EQ(s.quantile(0.99), 777u);
  EXPECT_EQ(s.quantile(0.999), 777u);
}

TEST(ObsHistogramEdge, SparseTailOnlyShowsAtP999) {
  obs::Histogram h;
  for (int i = 0; i < 1996; ++i) {
    h.record(100);
  }
  for (int i = 0; i < 4; ++i) {
    h.record(1 << 20);  // 4 of 2000 = 0.2% tail: past the nearest-rank
                        // p99.9 target (1998), invisible to p99 (1980)
  }
  const obs::Histogram::State s = h.state();
  EXPECT_LT(s.quantile(0.99), 1000u);               // p99 blind to the tail
  EXPECT_GE(s.quantile(0.999), uint64_t{1} << 20);  // p99.9 sees it
}

TEST(ObsHistogramEdge, TopBucketOverflowSaturatesNotWraps) {
  obs::Histogram h;
  h.record(~uint64_t{0});  // lands in the final log2 bucket
  const obs::Histogram::State s = h.state();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, ~uint64_t{0});
  EXPECT_EQ(s.quantile(0.999), ~uint64_t{0});
  // The quantile of an empty state stays at zero.
  EXPECT_EQ(obs::Histogram::State{}.quantile(0.999), 0u);
}

// One quantile rule behind every reader: the live histogram, the frozen
// JSON export and a window over exactly the same values (delta_since, the
// rule EsChecker::check_latency() hands rollout windows over by) must
// report the same p50/p90/p99; a window never sees what preceded its base.
TEST(ObsHistogramEdge, LiveFrozenAndWindowQuantilesAgree) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", obs::label({{"device", "fdc"}}));
  // Window start: the window holds every value recorded below.
  const obs::Histogram::State base = h.state();
  for (int i = 0; i < 10; ++i) {
    h.record(100);  // bucket upper edge 127
  }
  for (int i = 0; i < 8; ++i) {
    h.record(5000);  // upper edge 8191
  }
  h.record(40'000);
  h.record(300'000);  // upper edge 524287, clamped to the max
  const obs::Histogram::State w = h.state().delta_since(base);

  obs::MetricsRegistry::Frozen frozen;
  reg.freeze(frozen);
  const obs::JsonValue doc = obs::json_parse(frozen.to_json());
  const obs::JsonValue& fh = doc.find("histograms")->array.at(0);

  const uint64_t live[] = {h.p50(), h.p90(), h.p99()};
  const uint64_t window[] = {w.quantile(0.50), w.quantile(0.90),
                             w.quantile(0.99)};
  const char* const fields[] = {"p50", "p90", "p99"};
  const uint64_t expected[] = {127, 8191, 300'000};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(live[i], expected[i]) << fields[i];
    EXPECT_EQ(window[i], expected[i]) << fields[i];
    EXPECT_EQ(fh.find(fields[i])->number, static_cast<double>(expected[i]))
        << fields[i];
  }
  EXPECT_EQ(w.count, h.count());
  EXPECT_EQ(w.sum, h.sum());
  EXPECT_EQ(w.max, h.max());

  // A later window holds nothing recorded before its base: the cumulative
  // p99 still sees the slow samples, the window of fast ones does not, and
  // its max is bounded by its own highest bucket edge.
  const obs::Histogram::State base2 = h.state();
  for (int i = 0; i < 100; ++i) {
    h.record(100);
  }
  const obs::Histogram::State w2 = h.state().delta_since(base2);
  EXPECT_EQ(w2.count, 100u);
  EXPECT_EQ(w2.sum, 100u * 100u);
  EXPECT_EQ(w2.max, 127u);
  EXPECT_EQ(w2.quantile(0.99), 127u);
  EXPECT_GE(h.p99(), 40'000u);
}

}  // namespace
}  // namespace sedspec

// Replaceable global allocation functions for the allocation-count test
// above. Every non-aligned form routes to malloc/free so the pairs stay
// matched (sanitizer builds check that); counting is one thread-local load
// unless armed.
namespace {
void* counted_alloc(std::size_t n) {
  if (sedspec::t_count_allocs) {
    ++sedspec::t_allocs;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
