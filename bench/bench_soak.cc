// Long-haul soak: a multi-device enforcement fleet under continuous
// telemetry, live spec redeploys, and scheduled fault bursts.
//
// Two phases:
//
//   benign  — N shards cycling every device type drive >= 1M checked I/O
//             operations (full mode) while the collector thread ticks the
//             telemetry stack: MemoryProbe -> TimeSeries window -> SLO
//             evaluation -> flight-recorder epoch. Specs are live-
//             republished on a window cadence (checker swaps mid-soak) and
//             a deterministic BurstSchedule arms internal checker faults —
//             containment must absorb them without an SLO breach.
//   breach  — a small fleet runs with a latency fault (a busy-spin inside
//             the checker's internal-fault seam, i.e. inside the timed
//             check region) that blows the windowed p99 past the latency
//             objective. The burn-rate engine must breach, and the breach
//             must freeze a flight bundle whose JSON parses back with the
//             breaching window's metrics embedded.
//
// Exit status is the soak verdict: non-zero when any phase assertion
// fails (benign breach, report loss, missing induced breach or bundle,
// malformed bundle JSON). The telemetry export lands in BENCH_soak.json:
// flat metrics plus per-window series, gated by scripts/bench_gate.py
// against bench/baselines/BENCH_soak.json.
//
// `--smoke` shrinks the op counts to a seconds-long run with the same
// structure (the soak_smoke_lane ctest entry, plain + ASan/UBSan builds).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "faultinject/faultinject.h"
#include "guest/workload.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/memprobe.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "report.h"
#include "sedspec/enforcement.h"
#include "spec/spec_store.h"

namespace {

using namespace sedspec;

struct SoakParams {
  bool smoke = false;
  size_t shards = 8;
  uint64_t ops_per_shard = 131072;  // 8 x 131072 = 1,048,576 checked ops
  size_t breach_shards = 2;
  uint64_t breach_ops_per_shard = 96;
  uint64_t sample_interval_ms = 25;
  uint64_t republish_every_windows = 4;
  /// Breach-phase latency fault: every `spin_stride`-th checked round eats
  /// a `spin_ns` busy-wait inside the timed check region. 1-in-24 at 4 ms
  /// puts >4% of rounds far beyond the p99 objective without stretching
  /// the phase to minutes (devices run hundreds of rounds per guest op).
  uint64_t spin_ns = 4'000'000;
  uint64_t spin_stride = 24;
  double p99_objective_ns = 2'000'000;  // generous: holds under sanitizers
};

SoakParams params_for(bool smoke) {
  SoakParams p;
  p.smoke = smoke;
  if (smoke) {
    p.shards = 4;
    p.ops_per_shard = 3072;  // seconds-long even under ASan
    p.sample_interval_ms = 10;
    p.republish_every_windows = 3;
  }
  return p;
}

// Collector -> shard-thread signalling. The collector publishes the
// current window; shard threads read it at their checker_hook cadence.
std::atomic<uint64_t> g_window{0};

/// Per-shard hook bookkeeping, touched only by that shard's thread.
struct HookState {
  uint64_t window = ~uint64_t{0};
  checker::EsChecker* armed = nullptr;
};

obs::SloEngine make_slo_engine(const SoakParams& p) {
  obs::SloEngine engine;
  {
    obs::SloSpec s;
    s.name = "check-latency-p99";
    s.kind = obs::SloKind::kHistogramQuantileMax;
    s.metric = "checker_check_latency_ns";  // empty labels: fleet merge
    s.quantile = 0.99;
    s.threshold = p.p99_objective_ns;
    s.fast_windows = 1;
    s.slow_windows = 4;
    s.budget = 0.25;  // one bad window in four sustains a breach
    engine.add(s);
  }
  {
    obs::SloSpec s;
    s.name = "zero-report-loss";
    s.kind = obs::SloKind::kCounterRateMax;
    s.metric = "report_queue_dropped_total";
    s.threshold = 0.0;
    s.fast_windows = 1;
    s.slow_windows = 4;
    s.budget = 0.25;
    engine.add(s);
  }
  {
    obs::SloSpec s;
    s.name = "zero-violations";
    s.kind = obs::SloKind::kCounterRateMax;
    s.metric = "checker_violations_total";
    s.threshold = 0.0;
    s.fast_windows = 1;
    s.slow_windows = 4;
    s.budget = 0.25;
    engine.add(s);
  }
  {
    obs::SloSpec s;
    s.name = "rss-growth";
    s.kind = obs::SloKind::kGaugeGrowthMax;
    s.metric = "rss_bytes";
    s.threshold = 64.0 * (1 << 20);  // bytes per window
    s.fast_windows = 1;
    s.slow_windows = 4;
    s.budget = 0.25;
    engine.add(s);
  }
  return engine;
}

struct PhaseResult {
  enforce::RunReport report;
  uint64_t windows = 0;
  uint64_t breaches = 0;
  uint64_t violating_windows = 0;
  uint64_t redeploys_published = 0;
  uint64_t bursts_armed = 0;
};

/// Runs one enforcement phase with the collector loop ticking alongside.
/// `slo` accumulates this phase's verdicts; `ts` keeps this phase's
/// windows (primed once before the fleet starts so window deltas never
/// include the previous phase's cumulative totals).
PhaseResult run_phase(const SoakParams& p, spec::SpecStore& store,
                      std::vector<enforce::ShardSpec> fleet,
                      obs::FlightRecorder& flight, obs::MemoryProbe& probe,
                      obs::TimeSeries& ts, obs::SloEngine& slo,
                      std::mutex& ctx_mu, std::string& ctx_json,
                      bool live_republish,
                      std::atomic<uint64_t>* bursts_armed) {
  PhaseResult out;

  enforce::ServiceConfig svc;
  svc.report_queue_capacity = 4096;
  svc.spec_poll_ops = 64;
  svc.flight = &flight;
  enforce::EnforcementService service(&store, svc);

  // Prime the window base: the first real window deltas against "now",
  // not against process start.
  probe.sample();
  ts.sample(obs::now_ns());

  std::atomic<bool> done{false};
  std::thread runner([&] {
    out.report = service.run(fleet);
    done.store(true, std::memory_order_release);
  });

  const std::vector<std::string>& devices = guest::workload_names();
  size_t republish_next = 0;
  auto close_window = [&] {
    probe.sample();
    const obs::WindowSample& w = ts.sample(obs::now_ns());
    g_window.store(w.index, std::memory_order_relaxed);
    flight.set_epoch(w.index);
    const std::vector<obs::SloVerdict> verdicts = slo.evaluate(w);
    // Publish the window context the flight recorder embeds in bundles.
    std::ostringstream ctx;
    ctx << "{\"window\": " << w.index << ", \"t_end_ns\": " << w.t_end_ns
        << ", \"verdicts\": [";
    bool first = true;
    for (const obs::SloVerdict& v : verdicts) {
      ctx << (first ? "" : ", ") << "{\"slo\": \"" << obs::json_escape(v.slo)
          << "\", \"value\": " << v.value
          << ", \"violating\": " << (v.violating ? "true" : "false")
          << ", \"breach\": " << (v.breach ? "true" : "false") << "}";
      first = false;
    }
    ctx << "]}";
    {
      std::lock_guard<std::mutex> lock(ctx_mu);
      ctx_json = ctx.str();
    }
    // An SLO breach is an incident: freeze a bundle carrying the breaching
    // window (dedup keeps a sustained breach at one bundle per window).
    for (const obs::SloVerdict& v : verdicts) {
      if (v.breach) {
        flight.dump(obs::FlightTrigger::kSloBreach, 0, v.slo);
      }
    }
    ++out.windows;
    // Live redeploy: republish the current spec for one device (version
    // bump, same CFG); shards swap checkers at their next poll boundary.
    if (live_republish && p.republish_every_windows > 0 &&
        out.windows % p.republish_every_windows == 0) {
      const std::string& dev = devices[republish_next++ % devices.size()];
      store.publish(store.current(dev)->cfg);
      ++out.redeploys_published;
    }
  };

  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(p.sample_interval_ms));
    close_window();
  }
  runner.join();
  close_window();  // tail window: whatever landed after the last tick

  out.breaches = slo.breaches();
  out.violating_windows = slo.violating_windows();
  if (bursts_armed != nullptr) {
    out.bursts_armed = bursts_armed->load(std::memory_order_relaxed);
  }
  return out;
}

double series_median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool write_soak_json(const SoakParams& p, const PhaseResult& benign,
                     const PhaseResult& breach,
                     const obs::TimeSeries& benign_ts,
                     const obs::FlightRecorder& flight,
                     const obs::MemoryProbe& probe) {
  // Per-window series over the benign phase (window 0 is the priming
  // sample and carries no traffic; it is skipped).
  std::vector<double> p50, p99, p999, rounds, rss;
  for (size_t i = 0; i < benign_ts.size(); ++i) {
    const obs::WindowSample& w = benign_ts.window(i);
    if (w.index == 0) {
      continue;
    }
    const std::optional<obs::WindowHistogram> lat =
        w.merged_histogram("checker_check_latency_ns");
    p50.push_back(lat ? static_cast<double>(lat->p50) : 0.0);
    p99.push_back(lat ? static_cast<double>(lat->p99) : 0.0);
    p999.push_back(lat ? static_cast<double>(lat->p999) : 0.0);
    rounds.push_back(lat ? static_cast<double>(lat->state.count) : 0.0);
    const obs::WindowGauge* g = w.find_gauge("rss_bytes", "");
    rss.push_back(g != nullptr ? static_cast<double>(g->value) : 0.0);
  }

  std::map<std::string, double> metrics;
  metrics["soak_total_ops"] = static_cast<double>(
      benign.report.total_ops + breach.report.total_ops);
  metrics["soak_benign_ops"] = static_cast<double>(benign.report.total_ops);
  metrics["soak_shards"] = static_cast<double>(p.shards);
  metrics["soak_windows_benign"] = static_cast<double>(benign.windows);
  metrics["check_latency_p99_ns_max"] =
      p99.empty() ? 0.0 : *std::max_element(p99.begin(), p99.end());
  metrics["check_latency_p99_ns_median"] = series_median(p99);
  metrics["check_latency_p999_ns_max"] =
      p999.empty() ? 0.0 : *std::max_element(p999.begin(), p999.end());
  metrics["report_dropped_total"] =
      static_cast<double>(benign.report.reports_dropped +
                          breach.report.reports_dropped);
  metrics["slo_breaches_benign"] = static_cast<double>(benign.breaches);
  metrics["slo_breaches_induced"] = static_cast<double>(breach.breaches);
  metrics["live_redeploys_published"] =
      static_cast<double>(benign.redeploys_published);
  metrics["checker_redeploys_total"] = static_cast<double>(
      benign.report.total_redeploys + breach.report.total_redeploys);
  metrics["fault_bursts_armed"] = static_cast<double>(benign.bursts_armed);
  metrics["contained_faults_total"] = static_cast<double>(
      benign.report.fleet.contained_faults +
      benign.report.fleet.fail_closed_faults +
      benign.report.fleet.fail_open_faults);
  metrics["flight_bundles_total"] = static_cast<double>(flight.dumps());
  metrics["rss_peak_bytes"] = static_cast<double>(probe.rss_peak_bytes());

  std::FILE* f = std::fopen("BENCH_soak.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_soak: cannot write BENCH_soak.json\n");
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"soak\",\n  \"mode\": \"%s\",\n",
               p.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"series\": {");
  auto emit_series = [&](const char* name, const std::vector<double>& v,
                         bool last) {
    std::fprintf(f, "\n    \"%s\": [", name);
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", v[i]);
    }
    std::fprintf(f, "]%s", last ? "" : ",");
  };
  emit_series("check_latency_p50_ns", p50, false);
  emit_series("check_latency_p99_ns", p99, false);
  emit_series("check_latency_p999_ns", p999, false);
  emit_series("rounds_per_window", rounds, false);
  emit_series("rss_bytes", rss, true);
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench_report] wrote BENCH_soak.json (%zu metrics, "
               "5 series x %zu windows)\n", metrics.size(), p99.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const SoakParams p = params_for(smoke);
  set_log_level(LogLevel::kWarn);
  obs::set_timing_enabled(true);

  bench_report::title(smoke ? "Long-haul soak (smoke)" : "Long-haul soak");

  spec::SpecStore store;
  enforce::publish_device_specs(store, guest::workload_names());

  obs::FlightConfig fcfg;
  fcfg.shard_ring_capacity = 256;
  fcfg.max_bundles = 32;
  obs::FlightRecorder flight(p.shards, fcfg);
  std::mutex ctx_mu;
  std::string ctx_json;
  flight.set_context_provider([&ctx_mu, &ctx_json] {
    std::lock_guard<std::mutex> lock(ctx_mu);
    return ctx_json;
  });

  obs::MemoryProbe probe(obs::metrics());
  obs::TimeSeriesConfig tscfg;
  tscfg.window_capacity = 4096;  // retain the full soak for the export
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_soak: FAIL %s\n", what);
      ++failures;
    }
  };

  // Phase 1: benign mixed traffic + live redeploys + contained fault
  // bursts. Zero SLO breaches expected.
  const std::vector<std::string>& devices = guest::workload_names();
  std::vector<enforce::ShardSpec> fleet(p.shards);
  std::vector<HookState> hooks(p.shards);
  std::atomic<uint64_t> bursts_armed{0};
  // Windows 2, 6, 10, ... carry two internal checker faults each. The
  // burst kind is pinned to kThrow: a thrown traversal fault is contained
  // at the proxy boundary and (under fail-open) healed by a full shadow
  // resync, so benign traffic stays violation-free. Shadow-corruption
  // bursts would make the checker itself flag false violations, and
  // fail-closed containment quarantine-resets the device mid-protocol —
  // both poison the zero-violation objective by design, so they stay in
  // the fault campaign (tests/faultinject) rather than the benign soak.
  const faultinject::BurstSchedule bursts(2, 4, 2, /*seed=*/0x50a4);
  for (size_t i = 0; i < p.shards; ++i) {
    fleet[i].device = devices[i % devices.size()];
    fleet[i].ops = p.ops_per_shard;
    fleet[i].seed = 7000 + i;
    // Sequential common ops: the trained-spec-clean traffic class (random
    // interaction order has a nonzero false-positive expectation — see
    // bench_table2 — which would poison the zero-violation SLO). The mix
    // comes from five device types and per-shard seeds.
    fleet[i].mode = guest::InteractionMode::kSequential;
    // Fail-open containment: a contained fault degrades one round and
    // self-heals (resync), instead of quarantine-resetting the device out
    // from under the in-flight driver protocol.
    fleet[i].checker.failure_policy = checker::FailurePolicy::kFailOpen;
    HookState* st = &hooks[i];
    fleet[i].checker_hook = [st, &bursts, &bursts_armed](
                                uint64_t, checker::EsChecker& active) {
      const uint64_t w = g_window.load(std::memory_order_relaxed);
      if (st->window == w && st->armed == &active) {
        return;  // nothing changed since the last poll boundary
      }
      st->window = w;
      st->armed = &active;
      faultinject::disarm_checker_faults(active);
      faultinject::BurstSchedule::Burst b;
      if (bursts.at(w, b)) {
        faultinject::arm_checker_faults(
            active, faultinject::CheckerFaultKind::kThrow, b.count, b.seed);
        bursts_armed.fetch_add(1, std::memory_order_relaxed);
      }
    };
  }

  obs::TimeSeries benign_ts(&obs::metrics(), tscfg);
  obs::SloEngine benign_slo = make_slo_engine(p);
  g_window.store(0, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  PhaseResult benign =
      run_phase(p, store, fleet, flight, probe, benign_ts, benign_slo,
                ctx_mu, ctx_json, /*live_republish=*/true, &bursts_armed);
  const double benign_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  expect(benign.report.ok(), "benign phase: every shard finished clean");
  expect(benign.report.total_ops == p.shards * p.ops_per_shard,
         "benign phase: drove the full op budget");
  expect(benign.breaches == 0, "benign phase: zero SLO breaches");
  expect(benign.report.reports_dropped == 0, "benign phase: zero report loss");
  const uint64_t benign_violations =
      benign.report.fleet.violations_by_strategy[0] +
      benign.report.fleet.violations_by_strategy[1] +
      benign.report.fleet.violations_by_strategy[2];
  expect(benign_violations == 0,
         "benign phase: zero violations on the benign mix");
  expect(benign.redeploys_published >= 1,
         "benign phase: live redeploys were exercised");
  // Republishes late in the phase can land after a shard's last poll, so
  // pickup is >= 1, not >= published.
  expect(benign.report.total_redeploys >= 1,
         "benign phase: shards picked republished specs up mid-soak");

  std::printf("benign: %llu ops / %zu shards in %.1fs, %llu windows, "
              "%llu redeploys, %llu bursts armed, %llu contained faults, "
              "%llu breaches\n",
              static_cast<unsigned long long>(benign.report.total_ops),
              p.shards, benign_secs,
              static_cast<unsigned long long>(benign.windows),
              static_cast<unsigned long long>(benign.report.total_redeploys),
              static_cast<unsigned long long>(benign.bursts_armed),
              static_cast<unsigned long long>(
                  benign.report.fleet.contained_faults),
              static_cast<unsigned long long>(benign.breaches));

  // Phase 2: induced latency regression. The busy-spin rides the checker's
  // internal-fault seam, which runs inside the timed check region — the
  // windowed p99 must blow the objective and the burn-rate engine must
  // breach, freezing a flight bundle.
  std::vector<enforce::ShardSpec> breach_fleet(p.breach_shards);
  std::vector<HookState> breach_hooks(p.breach_shards);
  for (size_t i = 0; i < p.breach_shards; ++i) {
    breach_fleet[i].device = devices[i % devices.size()];
    breach_fleet[i].ops = p.breach_ops_per_shard;
    breach_fleet[i].seed = 9000 + i;
    HookState* st = &breach_hooks[i];
    const uint64_t spin_ns = p.spin_ns;
    const uint64_t spin_stride = p.spin_stride;
    breach_fleet[i].checker_hook = [st, spin_ns, spin_stride](
                                       uint64_t, checker::EsChecker& active) {
      if (st->armed == &active) {
        return;
      }
      st->armed = &active;
      // Spin on a stride of checked rounds, not every round: devices run
      // hundreds of rounds per guest op, so an every-round 4 ms stall
      // stretches the phase to minutes. 1-in-N still lands >1% of rounds
      // far past the p99 objective. All flags false: pure latency, no
      // injected checker fault.
      checker::CheckerHooks hooks = active.hooks();
      hooks.fault_hook =
          [spin_ns, spin_stride, n = uint64_t{0}](StateArena&) mutable {
            if (++n % spin_stride == 0) {
              const auto spin_until = std::chrono::steady_clock::now() +
                                      std::chrono::nanoseconds(spin_ns);
              while (std::chrono::steady_clock::now() < spin_until) {
              }
            }
            return checker::InternalFault{};
          };
      active.attach(std::move(hooks));
    };
  }

  obs::TimeSeries breach_ts(&obs::metrics(), tscfg);
  obs::SloEngine breach_slo = make_slo_engine(p);
  PhaseResult breach =
      run_phase(p, store, breach_fleet, flight, probe, breach_ts, breach_slo,
                ctx_mu, ctx_json, /*live_republish=*/false, nullptr);

  expect(breach.report.ok(), "breach phase: every shard finished clean");
  expect(breach.breaches >= 1,
         "breach phase: latency fault burst breached the p99 SLO");

  // The breach must have frozen a self-contained flight bundle whose JSON
  // parses back and carries the breaching window's context.
  bool bundle_ok = false;
  for (const obs::FlightBundle& b : flight.bundles()) {
    if (b.trigger != obs::FlightTrigger::kSloBreach) {
      continue;
    }
    try {
      const obs::JsonValue doc = obs::json_parse(b.to_json());
      const obs::JsonValue* ctx = doc.find("context");
      const obs::JsonValue* met = doc.find("metrics");
      bundle_ok = ctx != nullptr && ctx->is_object() &&
                  ctx->find("verdicts") != nullptr && met != nullptr &&
                  met->is_object() && met->find("histograms") != nullptr;
    } catch (const DecodeError&) {
      bundle_ok = false;
    }
    if (bundle_ok) {
      break;
    }
  }
  expect(bundle_ok,
         "breach phase: SLO-breach flight bundle parses back with window "
         "context and metrics");

  std::printf("breach: %llu ops, %llu windows, %llu breaches, "
              "%llu flight bundles (%llu suppressed)\n",
              static_cast<unsigned long long>(breach.report.total_ops),
              static_cast<unsigned long long>(breach.windows),
              static_cast<unsigned long long>(breach.breaches),
              static_cast<unsigned long long>(flight.dumps()),
              static_cast<unsigned long long>(flight.suppressed()));

  write_soak_json(p, benign, breach, benign_ts, flight, probe);

  if (failures != 0) {
    std::fprintf(stderr, "bench_soak: %d assertion(s) failed\n", failures);
    return 1;
  }
  std::printf("\nsoak verdict: clean (%s mode)\n", smoke ? "smoke" : "full");
  return 0;
}
