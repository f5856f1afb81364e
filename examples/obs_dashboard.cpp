// obs_dashboard — exercise the observability layer end-to-end and export
// every surface it has: a Prometheus text snapshot, a JSON metrics
// snapshot, and a Chrome trace-event file loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// The run: deploy SEDSpec on the FDC (pipeline-phase spans land in the
// trace), drive benign traffic, then replay the paper's first CVE case
// study (CVE-2015-3456 "VENOM") through ExploitScenario::evaluate() — the
// per-strategy runs populate `checker_check_latency_ns` histograms labeled
// strategies="parameter"/"indirect"/"conditional"/"all", and the blocked
// exploit emits violation events.
//
// The binary then validates its own output by parsing the exported bytes
// back with obs::json_parse (the dashboard is also the smoke test — see
// tests/CMakeLists.txt): the metrics snapshot must contain populated
// per-strategy latency histograms with ordered percentiles, and the trace
// must contain pipeline phase begin/end pairs and at least one violation
// event carrying a strategy label. Exit code 0 only if every check holds.
//
// The metrics snapshot also carries the FDC bus's access/blocked/proxy-
// fault totals, which the bus counts per instance and publishes at scrape
// time next to the checker's stats.
//
// Usage: obs_dashboard [--metrics PATH] [--prom PATH] [--trace PATH]
//   defaults: obs_metrics.json, obs_metrics.prom, obs_dashboard.trace.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/log.h"
#include "common/rng.h"
#include "guest/exploits.h"
#include "guest/workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace sedspec;

namespace {

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "obs_dashboard: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

/// Finds the `checker_check_latency_ns` histogram entry (in the parsed
/// metrics snapshot) whose label string contains `strategies="<set>"`.
const obs::JsonValue* find_latency_hist(const obs::JsonValue& snapshot,
                                        const std::string& strategy_set) {
  const obs::JsonValue* hists = snapshot.find("histograms");
  if (hists == nullptr || !hists->is_array()) {
    return nullptr;
  }
  const std::string want = "strategies=\"" + strategy_set + "\"";
  for (const obs::JsonValue& h : hists->array) {
    const obs::JsonValue* name = h.find("name");
    const obs::JsonValue* labels = h.find("labels");
    if (name != nullptr && name->str == "checker_check_latency_ns" &&
        labels != nullptr && labels->str.find(want) != std::string::npos) {
      return &h;
    }
  }
  return nullptr;
}

double num(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path = "obs_metrics.json";
  std::string prom_path = "obs_metrics.prom";
  std::string trace_path = "obs_dashboard.trace.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (arg == flag && i + 1 < argc) {
        return argv[++i];
      }
      const std::string eq = std::string(flag) + "=";
      if (arg.rfind(eq, 0) == 0) {
        return argv[i] + eq.size();
      }
      return nullptr;
    };
    if (const char* v = value("--metrics")) {
      metrics_path = v;
    } else if (const char* v = value("--prom")) {
      prom_path = v;
    } else if (const char* v = value("--trace")) {
      trace_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: obs_dashboard [--metrics PATH] [--prom PATH] "
                   "[--trace PATH]\n");
      return 2;
    }
  }

  set_log_level(LogLevel::kError);
  obs::set_timing_enabled(true);
  static obs::EventTracer tracer(1 << 16);
  obs::set_tracer(&tracer);

  // Phase spans: the full pipeline (trace pass, ITC-CFG, dataflow, observe
  // pass, ES-CFG build) runs under PhaseScope instrumentation.
  std::printf("deploying SEDSpec on fdc (pipeline phases traced)...\n");
  auto wl = guest::make_workload("fdc");
  wl->build_and_deploy();

  // Benign traffic through the checked bus path.
  Rng rng(2024);
  for (int i = 0; i < 50; ++i) {
    wl->common_operation(guest::InteractionMode::kRandom, rng);
  }
  wl->checker()->publish_metrics(obs::metrics());
  wl->bus().publish_metrics(obs::metrics(), "fdc");

  // CVE replay: scenario [0] is CVE-2015-3456 (VENOM, fdc). evaluate()
  // runs it unprotected, once per single strategy, and with all strategies
  // — populating every per-strategy latency label and emitting violation
  // events for the runs that detect it.
  const auto& scenario = guest::exploit_scenarios().front();
  std::printf("replaying %s against %s...\n", scenario.info().cve.c_str(),
              scenario.info().device.c_str());
  const auto matrix = scenario.evaluate();
  std::printf("  detected=%d blocked_damage=%d (param=%d indirect=%d "
              "conditional=%d)\n",
              matrix.detected ? 1 : 0, matrix.protected_compromised ? 0 : 1,
              matrix.parameter ? 1 : 0, matrix.indirect ? 1 : 0,
              matrix.conditional ? 1 : 0);

  // Export all three surfaces.
  const std::string metrics_json = obs::metrics().to_json();
  const std::string prom = obs::metrics().to_prometheus();
  const std::string trace_json = tracer.to_chrome_json();
  obs::set_tracer(nullptr);
  if (!write_file(metrics_path, metrics_json) ||
      !write_file(prom_path, prom) || !write_file(trace_path, trace_json)) {
    return 1;
  }
  std::printf("\nwrote %s (%zu bytes), %s (%zu bytes), %s (%zu events, %llu "
              "dropped)\n",
              metrics_path.c_str(), metrics_json.size(), prom_path.c_str(),
              prom.size(), trace_path.c_str(), tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()));

  // ---- Self-check: parse the exported bytes back and assert structure.
  std::printf("\nvalidating exports (parse-back)...\n");
  obs::JsonValue snapshot;
  obs::JsonValue trace;
  try {
    snapshot = obs::json_parse(metrics_json);
    trace = obs::json_parse(trace_json);
    check(true, "metrics + trace JSON parse cleanly");
  } catch (const DecodeError& e) {
    check(false, std::string("JSON parse: ") + e.what());
    return 1;
  }

  // Per-strategy check-latency percentiles, printed and validated.
  std::printf("\n  checker check-latency percentiles (ns):\n");
  std::printf("  %-14s %10s %10s %10s %10s %10s\n", "strategies", "count",
              "p50", "p90", "p99", "max");
  for (const char* set : {"parameter", "indirect", "conditional", "all"}) {
    const obs::JsonValue* h = find_latency_hist(snapshot, set);
    if (h == nullptr) {
      check(false, std::string("latency histogram for strategies=") + set);
      continue;
    }
    const double count = num(*h, "count");
    const double p50 = num(*h, "p50");
    const double p90 = num(*h, "p90");
    const double p99 = num(*h, "p99");
    std::printf("  %-14s %10.0f %10.0f %10.0f %10.0f %10.0f\n", set, count,
                p50, p90, p99, num(*h, "max"));
    check(count > 0, std::string("strategies=") + set + " has samples");
    check(p50 <= p90 && p90 <= p99,
          std::string("strategies=") + set + " percentiles ordered");
  }

  // Trace structure: phase spans + a violation instant with a strategy.
  const obs::JsonValue* events = trace.find("traceEvents");
  check(events != nullptr && events->is_array(), "trace has traceEvents[]");
  size_t begins = 0, ends = 0, violations = 0;
  bool violation_has_strategy = false;
  if (events != nullptr && events->is_array()) {
    for (const obs::JsonValue& e : events->array) {
      const obs::JsonValue* ph = e.find("ph");
      const obs::JsonValue* name = e.find("name");
      if (ph == nullptr || name == nullptr) {
        continue;
      }
      begins += ph->str == "B" ? 1 : 0;
      ends += ph->str == "E" ? 1 : 0;
      if (name->str == "violation") {
        ++violations;
        const obs::JsonValue* args = e.find("args");
        const obs::JsonValue* strategy =
            args != nullptr ? args->find("strategy") : nullptr;
        violation_has_strategy =
            violation_has_strategy ||
            (strategy != nullptr && !strategy->str.empty());
      }
    }
  }
  std::printf("\n  trace events: %zu phase-begin, %zu phase-end, %zu "
              "violations\n",
              begins, ends, violations);
  check(begins > 0 && begins == ends, "pipeline phase B/E events paired");
  check(violations > 0, "exploit replay produced violation events");
  check(violation_has_strategy, "violation events carry a strategy label");

  // Prometheus exposition sanity (text format, no parser needed).
  check(prom.find("# TYPE sedspec_checker_check_latency_ns summary") !=
            std::string::npos,
        "prometheus exposition has latency summary");
  check(prom.find("sedspec_bus_accesses_total") != std::string::npos,
        "prometheus exposition has bus counters");

  if (g_failures != 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed — open %s in ui.perfetto.dev to inspect "
              "the timeline\n",
              trace_path.c_str());
  return 0;
}
