// fleet: an EnforcementService with one shard per core but one (the report
// consumer takes the last), no VM-exit model, so contention on the shared
// bus counters, the SpecStore and the report queue shows. Each round runs
// the same shard set twice — protected and `unprotected` — in alternating
// order; a checker_hook republishes an identical spec at a fixed operation
// cadence, so every shard redeploys without an extra thread.
#include <malloc.h>

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "sedspec/enforcement.h"
#include "workloads.h"

namespace sedbench {

namespace {

// Operations per shard run, per device, so that shards finish together
// (about 40 ms each, protected): byte-PIO devices (fdc, sdhci) issue
// hundreds of accesses per operation, descriptor devices (usb-ehci, pcnet,
// scsi-esp) a dozen or two.
constexpr std::array<uint64_t, kDevices> kOpsPerRun = {220, 5500, 5500, 120,
                                                       4500};
constexpr uint64_t kSpecPollOps = 64;
// Every shard republishes its spec at the spec-poll boundaries that are
// multiples of this share of its run, so each run redeploys one to three
// times whatever its device.
constexpr uint64_t kRepublishPerRun = 3;
// The count pass: the first kCountRounds rounds at a quarter of the work.
constexpr uint32_t kCountRounds = 5;
constexpr uint64_t kCountScale = 4;
constexpr size_t kSpanCapacity = 400'000;

size_t shard_count() {
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  return std::min<size_t>(cores - 1, kDevices);
}

size_t device_index(const std::string& name) {
  const auto& names = device_names();
  return static_cast<size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

/// Per-shard hook state. Touched only by that shard's thread during run();
/// read by the main thread after run() has joined every shard.
struct ShardProbe {
  spec::SpecStore* store = nullptr;
  uint64_t ops = 0;
  uint64_t republish_every = 0;
  std::vector<uint64_t> op_ts;  // op_hook time of every operation
  std::vector<double> stall_us;
  std::vector<double> publish_us;
  const checker::EsChecker* active = nullptr;
  uint64_t stall_start = 0;
  bool swapped = false;
  // Trace mode.
  SpanLog* log = nullptr;
  uint64_t op_base = 0;
  uint32_t op_name = 0;
  uint32_t stall_name = 0;
  uint32_t publish_name = 0;
  uint32_t op_span = kNoSpan;
  uint32_t stall_span = kNoSpan;

  void on_op(uint64_t i) {
    const uint64_t t = now_ns();
    op_ts.push_back(t);
    if (swapped) {
      stall_us.push_back(static_cast<double>(t - stall_start) / 1e3);
      swapped = false;
    }
    if (log == nullptr) {
      return;
    }
    if (stall_span != kNoSpan) {
      log->end_at(stall_span, t);
      stall_span = kNoSpan;
    }
    if (op_span != kNoSpan) {
      log->end_at(op_span, t);
      op_span = kNoSpan;
    }
    // The last operation has no later hook to close it, so it stays out.
    if (i + 1 < ops) {
      op_span = log->begin_at(op_name, op_base + i, t);
    }
  }

  // Called after every deploy (with the new checker) and at every poll
  // boundary (with the live one).
  void on_checker(uint64_t op, const checker::EsChecker& live) {
    if (&live != active) {
      swapped = active != nullptr;
      active = &live;
      return;
    }
    if (op % republish_every != 0 || op >= ops) {
      return;
    }
    const uint64_t a = now_ns();
    store->publish(live.snapshot()->cfg);
    const uint64_t b = now_ns();
    publish_us.push_back(static_cast<double>(b - a) / 1e3);
    stall_start = b;
    if (log != nullptr && op_span != kNoSpan) {
      log->add(publish_name, op_base + op, a, b);
      stall_span = log->begin_at(stall_name, op_base + op, b);
    }
  }
};

/// Duration of every operation but the last, from consecutive op_hook
/// times.
std::vector<double> durations(const std::vector<uint64_t>& ts) {
  std::vector<double> out;
  for (size_t i = 0; i + 1 < ts.size(); ++i) {
    out.push_back(static_cast<double>(ts[i + 1] - ts[i]));
  }
  return out;
}

struct RoundRun {
  enforce::RunReport report;
  double wall_ns = 0;
  std::vector<ShardProbe> probes;
};

RoundRun run_round(spec::SpecStore& store, uint64_t seed, uint32_t round,
                   bool protect, uint64_t scale, std::vector<SpanLog>* logs) {
  const size_t shards = shard_count();
  RoundRun run;
  run.probes.resize(shards);
  std::vector<enforce::ShardSpec> specs(shards);
  for (size_t k = 0; k < shards; ++k) {
    const size_t dev = (round + k) % kDevices;
    ShardProbe& p = run.probes[k];
    p.store = &store;
    p.ops = std::max<uint64_t>(1, kOpsPerRun[dev] / scale);
    p.republish_every =
        std::max(kSpecPollOps, p.ops / kRepublishPerRun / kSpecPollOps *
                                   kSpecPollOps);
    p.op_ts.reserve(p.ops);
    if (logs != nullptr) {
      SpanLog& log = (*logs)[k];
      p.log = &log;
      p.op_base = static_cast<uint64_t>(round) << 32;
      p.op_name = log.name_id("shard.op/" + device_names()[dev] +
                              (protect ? "/protected" : "/unprotected"));
      p.stall_name = log.name_id("enforce.redeploy_stall");
      p.publish_name = log.name_id("spec.publish");
    }
    enforce::ShardSpec& s = specs[k];
    s.device = device_names()[dev];
    s.ops = p.ops;
    s.seed = Rng(seed * 0x9e3779b97f4a7c15ULL + round * 8 + k).next_u64();
    s.mode = (round + k) % 2 == 0 ? guest::InteractionMode::kSequential
                                  : guest::InteractionMode::kRandom;
    s.unprotected = !protect;
    s.op_hook = [&p](uint64_t i) { p.on_op(i); };
    if (protect) {
      s.checker_hook = [&p](uint64_t op, checker::EsChecker& live) {
        p.on_checker(op, live);
      };
    }
  }
  enforce::ServiceConfig config;
  config.spec_poll_ops = kSpecPollOps;
  enforce::EnforcementService service(&store, config);
  const uint64_t a = now_ns();
  run.report = service.run(specs);
  run.wall_ns = static_cast<double>(now_ns() - a);
  return run;
}

void validate(const RoundRun& run, bool protect, Tally& tally,
              const std::string& where) {
  tally.check(run.report.ok(), where + ": shard error");
  const checker::CheckerStats& f = run.report.fleet;
  if (protect) {
    tally.check(f.rounds == f.clean_rounds && f.blocked == 0 &&
                    f.contained_faults == 0,
                where + ": flagged, blocked or contained benign rounds");
    tally.check(run.report.reports_dropped == 0, where + ": reports dropped");
  }
  for (const enforce::ShardResult& s : run.report.shards) {
    tally.check(s.bus_owner_violations == 0 && s.redeploy_failures == 0 &&
                    s.ended_protected == protect,
                where + ": shard " + s.device + " owner violation, failed "
                        "redeploy or wrong protection state");
  }
}

uint64_t failed_ops(const RoundRun& run) {
  uint64_t failed = run.report.fleet.rounds - run.report.fleet.clean_rounds;
  for (const enforce::ShardResult& s : run.report.shards) {
    if (!s.ok()) {
      failed += s.ops;
    }
  }
  return failed;
}

FleetCounts count_pass(spec::SpecStore& store, uint64_t seed, Tally& tally) {
  FleetCounts c;
  for (uint32_t round = 0; round < kCountRounds; ++round) {
    const RoundRun run =
        run_round(store, seed, round, true, kCountScale, nullptr);
    validate(run, true, tally, "fleet count pass");
    tally.ops(run.report.total_ops, failed_ops(run));
    for (const enforce::ShardResult& s : run.report.shards) {
      c.shard_accesses.push_back(s.bus_accesses);
      c.shard_redeploys.push_back(s.redeploys);
    }
    c.rounds += run.report.fleet.rounds;
    c.steps += run.report.fleet.total_steps;
    c.redeploys += run.report.total_redeploys;
    c.reports_offered += run.report.fleet.reports_offered;
    c.reports_pushed += run.report.reports_pushed;
    c.reports_dropped += run.report.reports_dropped;
  }
  return c;
}

SetupTiming setup(std::unique_ptr<spec::SpecStore>& store) {
  SetupTiming t;
  const uint64_t a = now_ns();
  store = std::make_unique<spec::SpecStore>();
  enforce::publish_device_specs(*store, device_names());
  t.total_s = static_cast<double>(now_ns() - a) / 1e9;
  return t;
}

}  // namespace

FleetResult run_fleet(const FleetOptions& o) {
  // A fixed mmap threshold turns off glibc's dynamic one. Under it, freed
  // large blocks (guest memory, trace buffers) stay in the shard threads'
  // heaps in a timing-dependent way, and peak_rss_mb wandered between 130
  // and 170 MiB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  FleetResult out;
  Tally& tally = out.tally;

  // Five setups: the first two stores run the count pass (counts must
  // agree exactly), the last serves the timed phase. setup_s is the
  // median.
  std::unique_ptr<spec::SpecStore> store;
  out.setups.push_back(setup(store));
  out.counts = count_pass(*store, o.seed, tally);
  out.setups.push_back(setup(store));
  tally.check(count_pass(*store, o.seed, tally) == out.counts,
              "fleet: count pass did not repeat exactly");
  while (out.setups.size() < 5) {
    out.setups.push_back(setup(store));
  }

  std::vector<SpanLog> logs;
  for (size_t k = 0; o.traced && k < shard_count(); ++k) {
    logs.emplace_back(kSpanCapacity);
  }
  auto spans_full = [&] {
    return std::any_of(logs.begin(), logs.end(),
                       [](const SpanLog& l) { return l.full(); });
  };

  const uint64_t start = now_ns();
  const uint64_t deadline = start + static_cast<uint64_t>(o.seconds * 1e9);
  for (uint32_t round = 0; now_ns() < deadline; ++round) {
    // Traced and untraced rounds alternate in pairs, so each kind runs
    // both protected-first and unprotected-first.
    const bool traced = o.traced && (round / 2) % 2 == 1;
    if (traced && spans_full()) {
      break;
    }
    std::vector<SpanLog>* trace = traced ? &logs : nullptr;
    const size_t segment = segment_of(start, deadline, now_ns());
    const bool protected_first = round % 2 == 0;
    RoundRun first = run_round(*store, o.seed, round, protected_first, 1,
                               trace);
    RoundRun second = run_round(*store, o.seed, round, !protected_first, 1,
                                trace);
    const RoundRun& prot = protected_first ? first : second;
    const RoundRun& unprot = protected_first ? second : first;
    const std::string where = "fleet round " + std::to_string(round);
    validate(prot, true, tally, where + " protected");
    validate(unprot, false, tally, where + " unprotected");
    tally.ops(prot.report.total_ops, failed_ops(prot));
    tally.ops(unprot.report.total_ops, failed_ops(unprot));

    uint64_t accesses = 0;
    for (size_t k = 0; k < prot.report.shards.size(); ++k) {
      const enforce::ShardResult& ps = prot.report.shards[k];
      const enforce::ShardResult& us = unprot.report.shards[k];
      // Twin check: the same seeded stream must reach the bus equally
      // often with and without the checker.
      tally.check(ps.bus_accesses == us.bus_accesses,
                  where + ": " + ps.device + " twins differ in access count");
      accesses += ps.bus_accesses;
      if (traced) {
        continue;
      }
      const ShardProbe& pp = prot.probes[k];
      const ShardProbe& up = unprot.probes[k];
      const size_t dev = device_index(ps.device);
      for (double r : paired_ratios(durations(pp.op_ts), durations(up.op_ts))) {
        out.slowdown.add(dev, segment, r);
      }
      out.stall_us.insert(out.stall_us.end(), pp.stall_us.begin(),
                          pp.stall_us.end());
      out.publish_us.insert(out.publish_us.end(), pp.publish_us.begin(),
                            pp.publish_us.end());
      if (pp.op_ts.size() >= 2) {
        out.device_busy_ns[dev] +=
            static_cast<double>(pp.op_ts.back() - pp.op_ts.front());
        out.device_accesses[dev] += ps.bus_accesses;
      }
    }
    if (traced) {
      out.traced_protected_ns += prot.wall_ns;
      out.traced_accesses += accesses;
    } else {
      out.protected_ns += prot.wall_ns;
      out.unprotected_ns += unprot.wall_ns;
      out.protected_accesses += accesses;
    }
  }
  out.peak_rss_mb = peak_rss_mb();

  if (o.traced) {
    std::vector<const SpanLog*> all;
    for (const SpanLog& l : logs) {
      add_self_times(l, out.layers);
      all.push_back(&l);
    }
    write_trace(all, out.layers, o.trace_prefix);
  }
  return out;
}

}  // namespace sedbench
