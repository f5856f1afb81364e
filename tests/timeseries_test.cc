// Long-haul telemetry layer: windowed time-series deltas, the SLO
// burn-rate engine, the flight recorder, Prometheus exposition
// correctness (escaping + family grouping, verified by parsing the text
// back), and histogram merge/quantile edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sedspec {
namespace {

constexpr uint64_t kMs = 1'000'000;  // ns per ms

// TimeSeries ----------------------------------------------------------------

TEST(ObsTimeSeries, CounterDeltasAndRates) {
  obs::MetricsRegistry reg;
  obs::Counter& ops = reg.counter("ops_total", obs::label({{"shard", "0"}}));

  obs::TimeSeries ts(&reg);
  ops.inc(10);
  const obs::WindowSample& w0 = ts.sample(100 * kMs);
  // First window has no previous timestamp: zero-length, delta vs zero.
  EXPECT_EQ(w0.t_start_ns, w0.t_end_ns);
  const obs::WindowCounter* c0 =
      w0.find_counter("ops_total", obs::label({{"shard", "0"}}));
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->delta, 10u);
  EXPECT_EQ(c0->rate, 0.0);  // zero-length window, no rate

  ops.inc(50);
  const obs::WindowSample& w1 = ts.sample(200 * kMs);  // 100 ms window
  const obs::WindowCounter* c1 =
      w1.find_counter("ops_total", obs::label({{"shard", "0"}}));
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->delta, 50u);
  EXPECT_DOUBLE_EQ(c1->rate, 500.0);  // 50 / 0.1 s

  // Idle window: delta and rate collapse to zero even though the
  // cumulative counter still reads 60.
  const obs::WindowSample& w2 = ts.sample(300 * kMs);
  const obs::WindowCounter* c2 =
      w2.find_counter("ops_total", obs::label({{"shard", "0"}}));
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->delta, 0u);
  EXPECT_EQ(c2->rate, 0.0);
}

TEST(ObsTimeSeries, GaugeValueAndGrowth) {
  obs::MetricsRegistry reg;
  obs::Gauge& rss = reg.gauge("rss_bytes");
  obs::TimeSeries ts(&reg);

  rss.set(1000);
  ts.sample(1 * kMs);
  rss.set(1750);
  const obs::WindowSample& w = ts.sample(2 * kMs);
  const obs::WindowGauge* g = w.find_gauge("rss_bytes", "");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 1750);
  EXPECT_EQ(g->delta, 750);

  rss.set(1600);  // shrink: growth must go negative, not clamp
  const obs::WindowGauge* g2 = ts.sample(3 * kMs).find_gauge("rss_bytes", "");
  ASSERT_NE(g2, nullptr);
  EXPECT_EQ(g2->delta, -150);
}

TEST(ObsTimeSeries, WindowedHistogramQuantilesIgnoreOldWindows) {
  obs::MetricsRegistry reg;
  obs::Histogram& lat = reg.histogram("check_latency_ns");
  obs::TimeSeries ts(&reg);

  // Window 0: a slow regime (values ~64k).
  for (int i = 0; i < 100; ++i) {
    lat.record(60'000);
  }
  const obs::WindowSample& w0 = ts.sample(100 * kMs);
  const obs::WindowHistogram* h0 = w0.find_histogram("check_latency_ns", "");
  ASSERT_NE(h0, nullptr);
  EXPECT_EQ(h0->count, 100u);
  EXPECT_GE(h0->p99, 60'000u);

  // Window 1: fast regime. The cumulative histogram still holds the slow
  // samples, but the WINDOW p99 must reflect only this window's deltas.
  for (int i = 0; i < 100; ++i) {
    lat.record(100);
  }
  const obs::WindowSample& w1 = ts.sample(200 * kMs);
  const obs::WindowHistogram* h1 = w1.find_histogram("check_latency_ns", "");
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->count, 100u);
  EXPECT_LT(h1->p99, 1000u);
  // Cumulative p99 over the same registry would still see the slow regime.
  EXPECT_GE(lat.p99(), 60'000u);
}

TEST(ObsTimeSeries, RingEvictsButAggregatesCoverWholeRun) {
  obs::MetricsRegistry reg;
  obs::Counter& ops = reg.counter("ops_total");
  obs::TimeSeriesConfig cfg;
  cfg.window_capacity = 4;
  obs::TimeSeries ts(&reg, cfg);

  for (uint64_t i = 0; i < 10; ++i) {
    ops.inc(i);  // window i has delta i
    ts.sample((i + 1) * 100 * kMs);
  }
  EXPECT_EQ(ts.total_windows(), 10u);
  EXPECT_EQ(ts.size(), 4u);          // ring bounded
  EXPECT_EQ(ts.window(0).index, 6u); // oldest retained
  EXPECT_EQ(ts.latest().index, 9u);

  // Aggregates fold every window ever closed, not just the retained ring.
  const obs::SeriesAggregate* agg = ts.find_aggregate("ops_total{}.delta");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->windows, 10u);
  EXPECT_EQ(agg->min, 0.0);
  EXPECT_EQ(agg->max, 9.0);
  EXPECT_DOUBLE_EQ(agg->sum, 45.0);
  EXPECT_DOUBLE_EQ(agg->mean(), 4.5);
}

TEST(ObsTimeSeries, MergedHistogramSpansShardLabels) {
  obs::MetricsRegistry reg;
  reg.histogram("lat", obs::label({{"shard", "0"}})).record(10);
  reg.histogram("lat", obs::label({{"shard", "1"}})).record(1'000'000);
  obs::TimeSeries ts(&reg);
  const obs::WindowSample& w = ts.sample(kMs);

  std::optional<obs::WindowHistogram> merged = w.merged_histogram("lat");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->count, 2u);
  EXPECT_GE(merged->p99, 1'000'000u);  // tail from shard 1 visible
  EXPECT_FALSE(w.merged_histogram("no_such_metric").has_value());
}

TEST(ObsTimeSeries, ExportParsesBack) {
  obs::MetricsRegistry reg;
  reg.counter("ops_total", obs::label({{"shard", "0"}})).inc(7);
  reg.gauge("rss_bytes").set(4096);
  reg.histogram("lat").record(123);
  obs::TimeSeries ts(&reg);
  ts.sample(100 * kMs);
  ts.sample(200 * kMs);

  const obs::JsonValue doc = obs::json_parse(ts.to_json());
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_TRUE(windows->is_array());
  ASSERT_EQ(windows->array.size(), 2u);
  const obs::JsonValue* counters = windows->array[1].find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array.size(), 1u);
  EXPECT_EQ(counters->array[0].find("name")->str, "ops_total");
  const obs::JsonValue* aggs = doc.find("aggregates");
  ASSERT_NE(aggs, nullptr);
  EXPECT_TRUE(aggs->is_object());
  EXPECT_NE(aggs->find("lat{}.p99"), nullptr);
}

// SLO engine ----------------------------------------------------------------

TEST(ObsSlo, FastSpikeAloneDoesNotBreachSlowHorizon) {
  obs::MetricsRegistry reg;
  obs::Counter& drops = reg.counter("drops_total");
  obs::TimeSeries ts(&reg);

  obs::SloEngine engine;
  obs::SloSpec spec;
  spec.name = "no-drops";
  spec.kind = obs::SloKind::kCounterRateMax;
  spec.metric = "drops_total";
  spec.threshold = 0.0;  // any drop at all violates the window
  spec.fast_windows = 1;
  spec.slow_windows = 4;
  spec.budget = 0.5;  // up to half the slow horizon may violate
  engine.add(spec);

  // Four clean windows warm the slow horizon up.
  uint64_t t = 0;
  for (int i = 0; i < 4; ++i) {
    t += 100 * kMs;
    auto verdicts = engine.evaluate(ts.sample(t));
    EXPECT_FALSE(verdicts[0].violating);
    EXPECT_FALSE(verdicts[0].breach);
  }

  // One violating window: the fast horizon burns (1/1 / 0.5 = 2) but the
  // slow horizon is still within budget (1/4 / 0.5 = 0.5 < 1) — no page.
  drops.inc(5);
  t += 100 * kMs;
  auto v1 = engine.evaluate(ts.sample(t));
  EXPECT_TRUE(v1[0].violating);
  EXPECT_GE(v1[0].fast_burn, 1.0);
  EXPECT_LT(v1[0].slow_burn, 1.0);
  EXPECT_FALSE(v1[0].breach);
  EXPECT_EQ(engine.breaches(), 0u);

  // A second consecutive violating window pushes the slow horizon to
  // 2/4 / 0.5 = 1.0 — now it is a sustained burn and breaches.
  drops.inc(5);
  t += 100 * kMs;
  auto v2 = engine.evaluate(ts.sample(t));
  EXPECT_TRUE(v2[0].breach);
  EXPECT_EQ(engine.breaches(), 1u);
  EXPECT_EQ(engine.violating_windows(), 2u);
}

TEST(ObsSlo, HistogramQuantileObjectiveMergesShards) {
  obs::MetricsRegistry reg;
  obs::TimeSeries ts(&reg);
  obs::Histogram& s0 = reg.histogram("lat", obs::label({{"shard", "0"}}));
  obs::Histogram& s1 = reg.histogram("lat", obs::label({{"shard", "1"}}));

  obs::SloEngine engine;
  obs::SloSpec spec;
  spec.name = "lat-p99";
  spec.kind = obs::SloKind::kHistogramQuantileMax;
  spec.metric = "lat";  // empty labels: merge all shards
  spec.quantile = 0.99;
  spec.threshold = 10'000.0;
  spec.slow_windows = 1;
  engine.add(spec);

  for (int i = 0; i < 50; ++i) {
    s0.record(100);
    s1.record(120);
  }
  auto ok = engine.evaluate(ts.sample(100 * kMs));
  EXPECT_FALSE(ok[0].violating);

  // One shard's tail blows the merged p99 past the objective.
  for (int i = 0; i < 50; ++i) {
    s1.record(5'000'000);
  }
  auto bad = engine.evaluate(ts.sample(200 * kMs));
  EXPECT_TRUE(bad[0].violating);
  EXPECT_GT(bad[0].value, 10'000.0);
  EXPECT_TRUE(bad[0].breach);  // slow_windows=1: sustained by definition
}

TEST(ObsSlo, GaugeGrowthObjectiveAndBreachTraceEvent) {
  obs::MetricsRegistry reg;
  obs::Gauge& rss = reg.gauge("rss_bytes");
  obs::TimeSeries ts(&reg);

  obs::EventTracer tracer(64);
  obs::set_tracer(&tracer);

  obs::SloEngine engine;
  obs::SloSpec spec;
  spec.name = "rss-growth";
  spec.kind = obs::SloKind::kGaugeGrowthMax;
  spec.metric = "rss_bytes";
  spec.threshold = 1000.0;  // bytes per window
  spec.slow_windows = 1;
  engine.add(spec);

  rss.set(10'000);
  engine.evaluate(ts.sample(100 * kMs));
  rss.set(10'500);  // +500: inside the objective
  EXPECT_FALSE(engine.evaluate(ts.sample(200 * kMs))[0].violating);
  rss.set(20'000);  // +9500: leak-like growth
  EXPECT_TRUE(engine.evaluate(ts.sample(300 * kMs))[0].breach);

  // The breach must surface in the trace stream for the flight recorder /
  // control plane to see.
  bool saw_breach = false;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (e.type == obs::EventType::kSloBreach &&
        tracer.string_at(e.detail) == "rss-growth") {
      saw_breach = true;
    }
  }
  EXPECT_TRUE(saw_breach);
  obs::set_tracer(nullptr);
}

// Flight recorder -----------------------------------------------------------

TEST(ObsFlight, DumpFreezesRingAndDedupsWithinEpoch) {
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 8;
  cfg.max_bundles = 4;
  obs::FlightRecorder flight(2, cfg);
  flight.set_context_provider([] {
    return std::string("{\"window\": 41}");
  });

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
  flight.set_context_provider([] {
    return std::string(
        "{\"window\": 7, \"slo\": {\"name\": \"lat-p99\", \"value\": 123}}");
  });
  flight.shard_ring(0).record(obs::EventType::kQuarantine, "contain", "sdhci",
                              "fail_closed");
  flight.set_epoch(7);
  ASSERT_TRUE(flight.dump(obs::FlightTrigger::kSloBreach, 0, "lat-p99"));

  const obs::JsonValue doc = obs::json_parse(flight.to_json());
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* bundles = doc.find("bundles");
  ASSERT_NE(bundles, nullptr);
  ASSERT_EQ(bundles->array.size(), 1u);
  const obs::JsonValue& b = bundles->array[0];
  EXPECT_EQ(b.find("trigger")->str, "slo_breach");
  EXPECT_EQ(b.find("reason")->str, "lat-p99");
  EXPECT_EQ(b.find("epoch")->number, 7.0);
  // Embedded metrics + context are nested JSON, not strings: the bundle
  // must be explorable without a second parse.
  const obs::JsonValue* metrics = b.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
  const obs::JsonValue* ctx = b.find("context");
  ASSERT_NE(ctx, nullptr);
  ASSERT_TRUE(ctx->is_object());
  EXPECT_EQ(ctx->find("slo")->find("name")->str, "lat-p99");
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
  // bundle, although the bundle is rendered only now.
  probe.inc(100);
  obs::metrics().counter("flight_freeze_late_total").inc();
  obs::metrics().histogram("flight_freeze_late_ns").record(7);

  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(frozen_counter(bundles[0], "flight_freeze_probe_total"),
            static_cast<double>(frozen));
  EXPECT_FALSE(frozen_counter(bundles[0], "flight_freeze_late_total"));
  EXPECT_EQ(bundles[0].metrics_json.find("flight_freeze_late_ns"),
            std::string::npos);
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

TEST(ObsFlight, DumpAndRenderWhileShardsRecord) {
  // Shard threads record into their rings and register metric series
  // while this thread dumps (copying rings, freezing the registry) and
  // renders bundles (reading frozen keys outside the registry lock). The
  // TSan lane runs this; in other builds it checks the bundles parse.
  obs::FlightConfig cfg;
  cfg.shard_ring_capacity = 64;
  cfg.max_bundles = 4;
  obs::FlightRecorder flight(2, cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> shards;
  for (size_t shard = 0; shard < 2; ++shard) {
    shards.emplace_back([&flight, &stop, shard] {
      obs::EventTracer& ring = flight.shard_ring(shard);
      const obs::EventKey k = ring.key("io_read", "fdc");
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        ring.record(obs::EventType::kIoAccess, k, i, shard);
        if (i % 64 == 0) {
          obs::metrics()
              .counter("flight_race_total",
                       obs::label({{"n", std::to_string(i / 64 % 16)}}))
              .inc();
        }
      }
    });
  }
  while (flight.shard_ring(0).recorded() < 64 ||
         flight.shard_ring(1).recorded() < 64) {
    std::this_thread::yield();
  }
  for (uint64_t epoch = 0; epoch < 200; ++epoch) {
    flight.set_epoch(epoch);
    ASSERT_TRUE(flight.dump(obs::FlightTrigger::kViolation, epoch % 2, "r"));
    if (epoch % 20 == 0) {
      EXPECT_TRUE(obs::json_parse(flight.to_json()).is_object());
    }
  }
  stop.store(true);
  for (std::thread& t : shards) {
    t.join();
  }
  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 4u);
  EXPECT_EQ(bundles.back().sequence, 199u);
  for (const obs::FlightBundle& b : bundles) {
    EXPECT_EQ(b.events.size(), 64u);
    EXPECT_TRUE(obs::json_parse(b.metrics_json).is_object());
  }
}

// Deterministic work count: once every slot has been used, a dump with no
// context provider and no new metric series copies raw values into
// preallocated storage and allocates nothing. Counted by the operator-new
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
      ring.record(obs::EventType::kIoAccess, k, i, i);
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
  obs::MetricsRegistry reg;
  reg.histogram("lat", obs::label({{"shard", "0"}}));  // registered, no data
  reg.histogram("lat", obs::label({{"shard", "1"}}));
  obs::TimeSeries ts(&reg);
  const obs::WindowSample& w = ts.sample(kMs);
  std::optional<obs::WindowHistogram> merged = w.merged_histogram("lat");
  ASSERT_TRUE(merged.has_value());  // series exist, just empty
  EXPECT_EQ(merged->count, 0u);
  EXPECT_EQ(merged->p50, 0u);
  EXPECT_EQ(merged->p999, 0u);
}

TEST(ObsHistogramEdge, SingleBucketSaturationCollapsesAllQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 1000; ++i) {
    h.record(777);  // one bucket, and max pins the real upper bound
  }
  obs::TimeSeries ts(&reg);
  const obs::WindowHistogram* wh =
      ts.sample(kMs).find_histogram("lat", "");
  ASSERT_NE(wh, nullptr);
  // All mass in one bucket: every quantile resolves to the same clamped
  // bound, and the cumulative max (777) tightens the log2 upper edge
  // (1023).
  EXPECT_EQ(wh->p50, 777u);
  EXPECT_EQ(wh->p90, 777u);
  EXPECT_EQ(wh->p99, 777u);
  EXPECT_EQ(wh->p999, 777u);
}

TEST(ObsHistogramEdge, SparseTailOnlyShowsAtP999) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 1996; ++i) {
    h.record(100);
  }
  for (int i = 0; i < 4; ++i) {
    h.record(1 << 20);  // 4 of 2000 = 0.2% tail: past the nearest-rank
                        // p99.9 target (1998), invisible to p99 (1980)
  }
  obs::TimeSeries ts(&reg);
  const obs::WindowHistogram* wh =
      ts.sample(kMs).find_histogram("lat", "");
  ASSERT_NE(wh, nullptr);
  EXPECT_LT(wh->p99, 1000u);          // p99 blind to a 0.1% tail
  EXPECT_GE(wh->p999, uint64_t{1} << 20);  // p99.9 sees it
}

TEST(ObsHistogramEdge, TopBucketOverflowSaturatesNotWraps) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  h.record(~uint64_t{0});  // lands in the final log2 bucket
  obs::TimeSeries ts(&reg);
  const obs::WindowHistogram* wh =
      ts.sample(kMs).find_histogram("lat", "");
  ASSERT_NE(wh, nullptr);
  EXPECT_EQ(wh->count, 1u);
  EXPECT_EQ(wh->max_bound, ~uint64_t{0});
  EXPECT_EQ(wh->p999, ~uint64_t{0});
  // window_percentile with an empty delta array stays at zero.
  uint64_t empty[obs::Histogram::kBuckets] = {};
  EXPECT_EQ(obs::window_percentile(empty, 0, 0, 0.999), 0u);
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
