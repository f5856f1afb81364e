// sedbench — the SEDSpec benchmark program.
//
//   sedbench --workload guest_io|hostile_mix|fleet --seed N --seconds S
//            --trace 0|1 [--trace-dir DIR]
//
// --trace 0 runs the named workload untraced and prints its end-to-end
// metrics. --trace 1 runs all three workloads with alternating traced and
// untraced chunks and prints the per-layer ledger, plus the named
// workload's tracing overhead. Either way the last stdout line is one JSON
// object {correct, attempted, failed, metrics}, and the exit code is 1 when
// any correctness check failed. README.md documents every metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchsim/perf.h"
#include "common/log.h"
#include "guest/exploits.h"
#include "workloads.h"

namespace sedbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && a.seconds > 0 &&
         (a.workload == "guest_io" || a.workload == "hostile_mix" ||
          a.workload == "fleet");
}

/// The CVE matrix of the paper's Table III (eight CVEs plus the
/// CVE-2016-1568 miss), untimed.
void cve_matrix(Tally& tally) {
  for (const guest::ExploitScenario& s : guest::exploit_scenarios()) {
    const guest::CveInfo& info = s.info();
    const guest::ExploitScenario::Matrix m = s.evaluate();
    tally.check(m.parameter == info.expect_parameter &&
                    m.indirect == info.expect_indirect &&
                    m.conditional == info.expect_conditional &&
                    m.detected == info.expect_detected &&
                    m.unprotected_compromised,
                "CVE matrix mismatch on " + info.cve);
  }
}

double setup_median(const std::vector<SetupTiming>& setups) {
  std::vector<double> v;
  for (const SetupTiming& s : setups) {
    v.push_back(s.total_s);
  }
  return median(v);
}

double rate(uint64_t accesses, double ns) {
  return ns > 0 ? static_cast<double>(accesses) / (ns / 1e9) : 0;
}

double overhead_pct(double untraced_rate, double traced_rate) {
  return traced_rate > 0 ? (untraced_rate / traced_rate - 1) * 100 : 0;
}

// --- end-to-end -----------------------------------------------------------

void put_slowdowns(const Slowdowns& s, Report& rep) {
  rep.put("op_slowdown_p50", s.p50(), "x");
  rep.put("op_slowdown_p99", s.p99(), "x");
}

void vm_end_to_end(const VmResult& r, Report& rep) {
  rep.put("setup_s", setup_median(r.setups), "s");
  rep.put("normalized_throughput", r.total.unchecked_ns / r.total.checked_ns,
          "x");
  put_slowdowns(r.slowdown, rep);
  rep.put("peak_rss_mb", r.peak_rss_mb, "MiB");
}

void fleet_end_to_end(const FleetResult& r, Report& rep) {
  rep.put("setup_s", setup_median(r.setups), "s");
  rep.put("normalized_throughput", r.unprotected_ns / r.protected_ns, "x");
  put_slowdowns(r.slowdown, rep);
  rep.put("peak_rss_mb", r.peak_rss_mb, "MiB");
}

// --- per-layer ------------------------------------------------------------

/// Cost of one steady_clock read, subtracted from every leaf span (a leaf
/// span's two clock reads add about one read to what it measures).
double clock_read_ns() {
  std::vector<double> gaps;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t a = now_ns();
    const uint64_t b = now_ns();
    gaps.push_back(static_cast<double>(b - a));
  }
  return median(gaps);
}

/// Mean duration of all spans whose name starts with `prefix` and ends
/// with `suffix`, less one clock read.
double leaf_mean_ns(const LayerTimes& layers, const std::string& prefix,
                    const std::string& suffix, double clock_ns) {
  double total = 0;
  uint64_t count = 0;
  for (const auto& [name, t] : layers) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) {
      total += t.total_ns;
      count += t.count;
    }
  }
  return count == 0 ? 0 : total / static_cast<double>(count) - clock_ns;
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

void per_layer(const VmResult& io, const VmResult& hostile,
               const FleetResult& fleet, double overhead, double failed_ratio,
               Report& rep) {
  const double clock_ns = clock_read_ns();
  const auto& names = device_names();
  double added_total = 0;
  double unchecked_total = 0;
  uint64_t accesses_total = 0;
  for (size_t d = 0; d < kDevices; ++d) {
    const std::string& n = names[d];
    const TwinTotals& t = io.per_device[d];
    const double acc = static_cast<double>(std::max<uint64_t>(t.accesses, 1));
    added_total += t.checked_ns - t.unchecked_ns;
    unchecked_total += t.unchecked_ns;
    accesses_total += t.accesses;
    const double before =
        leaf_mean_ns(io.layers, "checker.before_access/" + n + "/", "",
                     clock_ns);
    const double after = leaf_mean_ns(
        io.layers, "checker.after_access/" + n + "/", "", clock_ns);
    const EngineLedger& e = io.engines[d];
    rep.put("vdev.unchecked_access_ns." + n, t.unchecked_ns / acc, "ns");
    rep.put("guest.accesses_per_op." + n,
            ratio(io.counts.accesses[d], io.counts.ops[d]), "count");
    rep.put("engine.check_ns." + n, e.check_ns, "ns");
    rep.put("engine.ns_per_step." + n, e.ns_per_step, "ns");
    rep.put("engine.steps_per_check." + n,
            ratio(io.counts.steps[d], io.counts.rounds[d]), "count");
    rep.put("engine.bytecode_speedup." + n, e.bytecode_speedup, "x");
    rep.put("checker.before_access_ns." + n, before, "ns");
    rep.put("checker.after_access_ns." + n, after, "ns");
    rep.put("checker.wrapper_ns." + n, before + after - e.check_ns, "ns");
    rep.put("checker.added_ns_per_access." + n,
            (t.checked_ns - t.unchecked_ns) / acc, "ns");
    rep.put("engine.compile_us." + n, e.compile_us, "us");
    std::vector<double> collect;
    std::vector<double> construct;
    for (const SetupTiming& s : io.setups) {
      collect.push_back(s.collect_ms[d]);
      construct.push_back(s.construct_ms[d]);
    }
    rep.put("pipeline.collect_ms." + n, median(collect), "ms");
    rep.put("pipeline.construct_ms." + n, median(construct), "ms");
  }
  rep.put("checker.modeled_overhead_pct",
          added_total /
              (unchecked_total + static_cast<double>(accesses_total) *
                                     static_cast<double>(benchsim::kVmExitNs)) *
              100,
          "%");
  uint64_t rounds = 0;
  for (uint64_t r : io.counts.rounds) {
    rounds += r;
  }
  rep.put("checker.rounds", static_cast<double>(rounds), "count");

  // hostile_mix: warning vs clean rounds, reports and flight bundles.
  rep.put("checker.warning_round_ns",
          leaf_mean_ns(hostile.layers, "checker.before_access/", "/warning",
                       clock_ns) +
              leaf_mean_ns(hostile.layers, "checker.after_access/",
                           "/warning", clock_ns),
          "ns");
  rep.put("checker.clean_round_ns",
          leaf_mean_ns(hostile.layers, "checker.before_access/", "/clean",
                       clock_ns) +
              leaf_mean_ns(hostile.layers, "checker.after_access/", "/clean",
                           clock_ns),
          "ns");
  rep.put("checker.warnings", static_cast<double>(hostile.counts.warnings),
          "count");
  rep.put("report_queue.offered",
          static_cast<double>(hostile.counts.reports_offered), "count");
  rep.put("report_queue.pushed",
          static_cast<double>(hostile.counts.reports_pushed), "count");
  rep.put("report_queue.dropped",
          static_cast<double>(hostile.counts.reports_dropped), "count");
  std::vector<double> dump_us;
  if (const auto it = hostile.layers.find("obs.flight_dump");
      it != hostile.layers.end()) {
    for (double ns : it->second.durations_ns) {
      dump_us.push_back(ns / 1e3);
    }
  }
  rep.put("obs.flight_dump_us_p50", median(dump_us), "us");
  rep.put("obs.flight_dumps", static_cast<double>(hostile.counts.flight_dumps),
          "count");
  rep.put("obs.flight_suppressed",
          static_cast<double>(hostile.counts.flight_suppressed), "count");

  // fleet: publish, redeploy, per-shard rates.
  rep.put("spec.publish_us_p50", median(fleet.publish_us), "us");
  rep.put("enforce.redeploys", static_cast<double>(fleet.counts.redeploys),
          "count");
  std::vector<double> shard_rates;
  for (size_t d = 0; d < kDevices; ++d) {
    if (fleet.device_busy_ns[d] > 0) {
      shard_rates.push_back(
          rate(fleet.device_accesses[d], fleet.device_busy_ns[d]));
    }
  }
  rep.put("enforce.shard_accesses_per_s.min", percentile(shard_rates, 0),
          "1/s");
  rep.put("enforce.shard_accesses_per_s.max", percentile(shard_rates, 1),
          "1/s");
  rep.put("redeploy_stall_us_p50", percentile(fleet.stall_us, 0.50), "us");
  rep.put("redeploy_stall_us_p99", percentile(fleet.stall_us, 0.99), "us");
  // Absolute rates drift with the shared host (see README), so they are
  // reported here, unbounded, rather than as end-to-end gates.
  rep.put("checked_accesses_per_s.guest_io",
          rate(io.total.accesses, io.total.checked_ns), "1/s");
  rep.put("checked_accesses_per_s.hostile_mix",
          rate(hostile.total.accesses, hostile.total.checked_ns), "1/s");
  rep.put("checked_accesses_per_s.fleet",
          rate(fleet.protected_accesses, fleet.protected_ns), "1/s");
  rep.put("failed_op_ratio", failed_ratio, "ratio");
  rep.put("trace.overhead_pct", overhead, "%");
}

double vm_overhead(const VmResult& r) {
  return overhead_pct(rate(r.total.accesses, r.total.checked_ns),
                      rate(r.traced.accesses, r.traced.checked_ns));
}

/// --trace 0: the named workload, untraced, for its end-to-end metrics.
void end_to_end(const Args& a, Tally& tally, Report& rep) {
  if (a.workload == "fleet") {
    const FleetResult r = run_fleet({a.seed, a.seconds, false, {}});
    fleet_end_to_end(r, rep);
    tally.merge(r.tally);
    return;
  }
  VmOptions o;
  o.hostile = a.workload == "hostile_mix";
  o.seed = a.seed;
  o.seconds = a.seconds;
  const VmResult r = run_vm(o);
  vm_end_to_end(r, rep);
  tally.merge(r.tally);
}

/// --trace 1: the ledger needs all three workloads, so the time is split
/// between them; trace.overhead_pct is the named workload's.
void ledger(const Args& a, Tally& tally, Report& rep) {
  const std::string prefix =
      a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);
  VmOptions io;
  io.seed = a.seed;
  io.seconds = a.seconds * 0.3;
  io.traced = true;
  io.replay_seconds = a.seconds * 0.15;
  io.trace_prefix = prefix + "-guest_io";
  VmOptions hostile = io;
  hostile.hostile = true;
  hostile.seconds = a.seconds * 0.25;
  hostile.replay_seconds = 0;
  hostile.trace_prefix = prefix + "-hostile_mix";
  const VmResult ri = run_vm(io);
  const VmResult rh = run_vm(hostile);
  const FleetResult rf =
      run_fleet({a.seed, a.seconds * 0.3, true, prefix + "-fleet"});
  tally.merge(ri.tally);
  tally.merge(rh.tally);
  tally.merge(rf.tally);
  cve_matrix(tally);
  double overhead = 0;
  if (a.workload == "guest_io") {
    overhead = vm_overhead(ri);
  } else if (a.workload == "hostile_mix") {
    overhead = vm_overhead(rh);
  } else {
    overhead = overhead_pct(rate(rf.protected_accesses, rf.protected_ns),
                            rate(rf.traced_accesses, rf.traced_protected_ns));
  }
  per_layer(ri, rh, rf, overhead, ratio(tally.failed, tally.attempted), rep);
}

int run(const Args& a) {
  set_log_level(LogLevel::kError);
  Tally tally;
  const std::string selftest = run_selftests();
  tally.check(selftest.empty(), "self-test failed: " + selftest);

  Report rep;
  if (a.trace) {
    ledger(a, tally, rep);
  } else {
    end_to_end(a, tally, rep);
    cve_matrix(tally);
  }
  for (const std::string& name : rep.bad()) {
    tally.check(false, "metric " + name + " is not finite");
  }
  for (size_t i = 0; i < tally.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "sedbench: FAILED %s\n", tally.errors[i].c_str());
  }
  const bool correct = tally.failed == 0;
  std::printf("%s\n", rep.json(correct, tally.attempted, tally.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sedbench

int main(int argc, char** argv) {
  sedbench::Args args;
  if (!sedbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sedbench --workload guest_io|hostile_mix|fleet "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  return sedbench::run(args);
}
