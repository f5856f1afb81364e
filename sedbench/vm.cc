// guest_io and hostile_mix: one VM with the five patched devices. Every
// device exists twice — a checked twin behind an EsChecker and an
// unchecked twin with no proxy — and both are fed the same seeded
// operation, one after the other, so each operation yields a paired
// checked/unchecked host time. The loop is closed: the guest vCPU issues
// the next operation only after the previous one (both twins) returned.
#include <algorithm>
#include <sys/resource.h>

#include "checker/engine/engine.h"
#include "checker/report_queue.h"
#include "common/rng.h"
#include "guest/workload.h"
#include "obs/flight.h"
#include "sedspec/pipeline.h"
#include "workloads.h"

namespace sedbench {

namespace {

// hostile_mix issues one rare-but-legal operation (a Table II
// false-positive source) every kRareEvery operations.
constexpr uint64_t kRareEvery = 16;
// Flight-recorder dedup window: at most one bundle per device per window.
constexpr uint64_t kFlightEpochOps = 64;
// Length of the fixed count pass whose work counts must repeat exactly.
constexpr uint64_t kCountOps = 600;
// Accesses per device kept for the bare-engine replay.
constexpr size_t kRecordCap = 20000;
// Trace mode alternates untraced and traced chunks of this many operations.
constexpr uint64_t kChunkOps = 32;
constexpr size_t kSpanCapacity = 1'500'000;
constexpr size_t kSetups = 5;

struct VmOp {
  uint32_t dev = 0;
  guest::InteractionMode mode = guest::InteractionMode::kRandom;
  uint64_t seed = 0;
  bool rare = false;
};

/// The seeded operation stream: which device, which mode, which operation
/// seed. The same seed always yields the same stream.
class OpStream {
 public:
  OpStream(uint64_t seed, bool hostile)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + (hostile ? 2 : 1)),
        hostile_(hostile) {}

  VmOp next() {
    VmOp op;
    op.rare = hostile_ && index_ % kRareEvery == kRareEvery - 1;
    // Rare operations rotate over the devices, so every seed spreads them
    // (and the flight dumps they cause) alike.
    const auto drawn = static_cast<uint32_t>(rng_.below(kDevices));
    op.dev = op.rare ? static_cast<uint32_t>((index_ / kRareEvery) % kDevices)
                     : drawn;
    op.mode = rng_.chance(0.5) ? guest::InteractionMode::kRandom
                               : guest::InteractionMode::kSequential;
    op.seed = rng_.next_u64();
    ++index_;
    return op;
  }

 private:
  Rng rng_;
  bool hostile_;
  uint64_t index_ = 0;
};

void drive(guest::DeviceWorkload& w, const VmOp& op) {
  Rng rng(op.seed);
  if (op.rare) {
    w.rare_operation(rng);
  } else {
    w.common_operation(op.mode, rng);
  }
}

/// Pass-through proxy in front of a checked twin's EsChecker. It can
/// record the access stream (for the bare-engine replay) and time both
/// hooks as leaf spans, named by whether the round was clean.
class ProbeProxy final : public IoProxy {
 public:
  struct Names {
    uint32_t before_clean = 0;
    uint32_t before_warning = 0;
    uint32_t after_clean = 0;
    uint32_t after_warning = 0;
  };

  checker::EsChecker* inner = nullptr;
  Recording* recording = nullptr;  // null: do not record
  SpanLog* log = nullptr;          // null: do not time
  Names names;
  uint64_t op = 0;

  bool before_access(Device& device, const IoAccess& io) override {
    if (recording != nullptr && recording->accesses.size() < kRecordCap) {
      if (recording->initial == nullptr) {
        recording->initial =
            std::make_unique<StateArena>(&device.program().layout());
        recording->initial->copy_from(inner->shadow());
        recording->active_cmd = inner->engine().active_command();
      }
      recording->accesses.push_back(io);
    }
    if (log == nullptr) {
      return inner->before_access(device, io);
    }
    const uint64_t a = now_ns();
    const bool allow = inner->before_access(device, io);
    const uint64_t b = now_ns();
    warned_ = !inner->last_result().clean();
    log->add(warned_ ? names.before_warning : names.before_clean, op, a, b);
    return allow;
  }

  void after_access(Device& device, const IoAccess& io) override {
    if (log == nullptr) {
      inner->after_access(device, io);
      return;
    }
    const uint64_t a = now_ns();
    inner->after_access(device, io);
    const uint64_t b = now_ns();
    log->add(warned_ ? names.after_warning : names.after_clean, op, a, b);
  }

 private:
  bool warned_ = false;
};

struct Twin {
  std::unique_ptr<guest::DeviceWorkload> checked;
  std::unique_ptr<guest::DeviceWorkload> unchecked;
  spec::SnapshotRef snapshot;
  std::unique_ptr<checker::EsChecker> checker;
};

struct SpanNames {
  uint32_t op = 0;
  uint32_t drain = 0;
  uint32_t dump = 0;
  std::array<uint32_t, kDevices> checked{};
  std::array<uint32_t, kDevices> unchecked{};
  std::array<ProbeProxy::Names, kDevices> proxy{};
};

/// One VM: five device twins plus, for hostile_mix, the report queue the
/// benchmark drains and the flight recorder it freezes bundles into.
class Rig {
 public:
  Rig(bool hostile, SetupTiming& timing) : hostile_(hostile) {
    const uint64_t start = now_ns();
    for (size_t d = 0; d < kDevices; ++d) {
      const std::string& name = device_names()[d];
      Twin& t = twins_[d];
      t.checked = guest::make_workload(name);
      t.unchecked = guest::make_workload(name);
      guest::DeviceWorkload* w = t.checked.get();
      Device& dev = w->device();

      const uint64_t a = now_ns();
      const pipeline::CollectionResult collection =
          pipeline::collect(dev, [w] { w->training(); });
      const uint64_t b = now_ns();
      spec::EsCfg cfg = pipeline::construct(dev, collection);
      const uint64_t c = now_ns();
      dev.reset();
      t.snapshot = store_.publish(std::move(cfg));
      timing.collect_ms[d] = static_cast<double>(b - a) / 1e6;
      timing.construct_ms[d] = static_cast<double>(c - b) / 1e6;

      checker::CheckerConfig config;
      config.mode = hostile ? checker::Mode::kEnhancement
                            : checker::Mode::kProtection;
      t.checker = pipeline::deploy(t.snapshot->cfg, dev, w->bus(), config);
      if (hostile) {
        checker::CheckerHooks hooks;
        hooks.report_sink = &queue_;
        hooks.shard_id = static_cast<uint32_t>(d);
        hooks.local_tracer = &flight_.shard_ring(d);
        t.checker->attach(std::move(hooks));
      }

      // The unchecked twin lives through the same history as the checked
      // one (two training passes, each after a reset, then a reset), so
      // device state and guest memory start out identical.
      guest::DeviceWorkload* u = t.unchecked.get();
      for (int pass = 0; pass < 2; ++pass) {
        u->device().reset();
        u->training();
      }
      u->device().reset();
      w->bus().reset_stats();
      u->bus().reset_stats();
    }
    timing.total_s = static_cast<double>(now_ns() - start) / 1e9;
  }

  Twin& twin(size_t d) { return twins_[d]; }

  void resolve_names(SpanLog& log) {
    names_.op = log.name_id("vm.op");
    names_.drain = log.name_id("report_queue.drain");
    names_.dump = log.name_id("obs.flight_dump");
    for (size_t d = 0; d < kDevices; ++d) {
      const std::string& n = device_names()[d];
      names_.checked[d] = log.name_id("twin.checked/" + n);
      names_.unchecked[d] = log.name_id("twin.unchecked/" + n);
      names_.proxy[d] = {log.name_id("checker.before_access/" + n + "/clean"),
                         log.name_id("checker.before_access/" + n + "/warning"),
                         log.name_id("checker.after_access/" + n + "/clean"),
                         log.name_id("checker.after_access/" + n + "/warning")};
    }
  }

  /// Runs one operation on both twins (order alternating by index) and
  /// returns the paired host times. `log` set: trace this operation.
  /// `recordings` set: record every checked access for the replay.
  struct Sample {
    double checked_ns = 0;
    double unchecked_ns = 0;
    uint64_t accesses = 0;
    bool failed = false;
  };
  Sample run_op(const VmOp& op, uint64_t index, SpanLog* log,
                std::array<Recording, kDevices>* recordings) {
    if (hostile_ && index % kFlightEpochOps == 0) {
      flight_.set_epoch(index / kFlightEpochOps);
    }
    Twin& t = twins_[op.dev];
    IoBus& bus = t.checked->bus();
    const checker::CheckerStats before = t.checker->stats();
    const uint64_t accesses_before = bus.access_count();
    const bool probed = log != nullptr || recordings != nullptr;
    if (probed) {
      probe_.inner = t.checker.get();
      probe_.log = log;
      probe_.recording =
          recordings == nullptr ? nullptr : &(*recordings)[op.dev];
      probe_.names = names_.proxy[op.dev];
      probe_.op = index;
      bus.set_proxy(&probe_);
    }
    const uint32_t op_span =
        log == nullptr ? kNoSpan : log->begin(names_.op, index);
    Sample s;
    const bool checked_first = index % 2 == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool checked = (pass == 0) == checked_first;
      const uint32_t span =
          log == nullptr
              ? kNoSpan
              : log->begin(checked ? names_.checked[op.dev]
                                   : names_.unchecked[op.dev],
                           index);
      const uint64_t a = now_ns();
      if (checked) {
        drive(*t.checked, op);
        if (hostile_) {
          drain_reports(index, log);
        }
      } else {
        drive(*t.unchecked, op);
      }
      const uint64_t b = now_ns();
      if (span != kNoSpan) {
        log->end(span);
      }
      (checked ? s.checked_ns : s.unchecked_ns) = static_cast<double>(b - a);
    }
    if (op_span != kNoSpan) {
      log->end(op_span);
    }
    if (probed) {
      bus.set_proxy(t.checker.get());
    }
    s.accesses = bus.access_count() - accesses_before;
    const checker::CheckerStats& after = t.checker->stats();
    if (hostile_) {
      // Warnings are expected here; a block or a contained fault is not.
      s.failed = after.blocked != before.blocked ||
                 after.contained_faults != before.contained_faults;
    } else {
      s.failed = after.rounds - before.rounds !=
                 after.clean_rounds - before.clean_rounds;
    }
    return s;
  }

  /// Exact counts so far (the count pass calls this on a fresh rig).
  [[nodiscard]] VmCounts counts(
      const std::array<uint64_t, kDevices>& ops) const {
    VmCounts c;
    c.ops = ops;
    for (size_t d = 0; d < kDevices; ++d) {
      const checker::CheckerStats& s = twins_[d].checker->stats();
      c.accesses[d] = twins_[d].checked->bus().access_count();
      c.rounds[d] = s.rounds;
      c.steps[d] = s.total_steps;
      c.warnings += s.warnings;
      c.blocked += s.blocked;
      c.violations += s.violations_by_strategy[0] +
                      s.violations_by_strategy[1] +
                      s.violations_by_strategy[2];
      c.contained_faults += s.contained_faults;
      c.reports_offered += s.reports_offered;
    }
    c.reports_pushed = queue_.pushed();
    c.reports_dropped = queue_.dropped();
    c.flight_dumps = flight_.dumps();
    c.flight_suppressed = flight_.suppressed();
    return c;
  }

  /// Output validation: the twins must agree, and the checker must have
  /// behaved as the workload demands.
  void validate(Tally& tally, const std::string& phase) {
    const std::string where = (hostile_ ? "hostile_mix " : "guest_io ") +
                              phase + ": ";
    uint64_t warnings = 0;
    for (size_t d = 0; d < kDevices; ++d) {
      Twin& t = twins_[d];
      const std::string& n = device_names()[d];
      tally.check(std::ranges::equal(t.checked->device().state().bytes(),
                                     t.unchecked->device().state().bytes()),
                  where + n + " twins differ in device state");
      tally.check(t.checked->bus().access_count() ==
                      t.unchecked->bus().access_count(),
                  where + n + " twins differ in access count");
      tally.check(t.checked->bus().proxy_fault_count() == 0 &&
                      t.checked->bus().owner_violations() == 0,
                  where + n + " proxy faults or bus-owner violations");
      const checker::CheckerStats& s = t.checker->stats();
      tally.check(s.blocked == 0 && s.contained_faults == 0,
                  where + n + " blocked rounds or contained faults");
      if (!hostile_) {
        tally.check(s.rounds == s.clean_rounds,
                    where + n + " flagged benign rounds");
      }
      warnings += s.warnings;
    }
    if (hostile_) {
      tally.check(warnings > 0, where + "no warnings on rare operations");
      tally.check(queue_.dropped() == 0, where + "reports dropped");
    }
  }

 private:
  void drain_reports(uint64_t index, SpanLog* log) {
    const uint32_t span =
        log == nullptr ? kNoSpan : log->begin(names_.drain, index);
    drained_.clear();
    queue_.drain(drained_);
    for (const checker::Report& r : drained_) {
      if (r.kind != checker::Report::Kind::kViolation) {
        continue;
      }
      const uint64_t a = now_ns();
      const bool dumped = flight_.dump(obs::FlightTrigger::kViolation,
                                       r.shard, device_names()[r.shard]);
      if (log != nullptr && dumped) {
        log->add(names_.dump, index, a, now_ns());
      }
    }
    if (span != kNoSpan) {
      log->end(span);
    }
  }

  bool hostile_;
  spec::SpecStore store_;
  checker::ReportQueue queue_{1024};
  obs::FlightRecorder flight_{kDevices};
  std::vector<checker::Report> drained_;
  std::array<Twin, kDevices> twins_;
  ProbeProxy probe_;
  SpanNames names_;
};

/// Fixed-length untimed pass on a fresh rig; returns its exact counts.
VmCounts count_pass(Rig& rig, const VmOptions& o, Tally& tally,
                    std::array<Recording, kDevices>* recordings) {
  OpStream stream(o.seed, o.hostile);
  std::array<uint64_t, kDevices> ops{};
  uint64_t failed = 0;
  for (uint64_t i = 0; i < kCountOps; ++i) {
    const VmOp op = stream.next();
    failed += rig.run_op(op, i, nullptr, recordings).failed ? 1 : 0;
    ++ops[op.dev];
  }
  tally.ops(kCountOps, failed);
  rig.validate(tally, "count pass");
  return rig.counts(ops);
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

VmResult run_vm(const VmOptions& o) {
  VmResult out;
  Tally& tally = out.tally;
  const std::string name = o.hostile ? "hostile_mix" : "guest_io";

  // Set up five times: the first two rigs run the count pass (whose counts
  // must agree exactly), the last runs the timed phase. setup_s is the
  // median.
  std::array<SetupTiming, kSetups> timing;
  std::array<Recording, kDevices> recordings;
  const bool record = o.traced && !o.hostile;
  auto first = std::make_unique<Rig>(o.hostile, timing[0]);
  out.counts = count_pass(*first, o, tally, record ? &recordings : nullptr);
  if (!record) {
    first.reset();
  }
  {
    Rig second(o.hostile, timing[1]);
    tally.check(count_pass(second, o, tally, nullptr) == out.counts,
                name + ": count pass did not repeat exactly");
  }
  for (size_t i = 2; i + 1 < kSetups; ++i) {
    Rig discard(o.hostile, timing[i]);
  }
  Rig rig(o.hostile, timing[kSetups - 1]);
  out.setups.assign(timing.begin(), timing.end());

  SpanLog log(o.traced ? kSpanCapacity : 0);
  rig.resolve_names(log);
  OpStream stream(o.seed, o.hostile);
  uint64_t failed = 0;
  uint64_t index = 0;
  const uint64_t start = now_ns();
  const uint64_t deadline = start + static_cast<uint64_t>(o.seconds * 1e9);
  for (; now_ns() < deadline; ++index) {
    const bool traced = o.traced && (index / kChunkOps) % 2 == 1;
    if (traced && index % kChunkOps == 0 && log.full()) {
      break;  // the span budget is spent; keep chunks balanced
    }
    const VmOp op = stream.next();
    const Rig::Sample s =
        rig.run_op(op, index, traced ? &log : nullptr, nullptr);
    failed += s.failed ? 1 : 0;
    TwinTotals& sums = traced ? out.traced : out.total;
    sums.checked_ns += s.checked_ns;
    sums.unchecked_ns += s.unchecked_ns;
    sums.accesses += s.accesses;
    if (!traced) {
      out.slowdown.add(op.dev, segment_of(start, deadline, now_ns()),
                       s.checked_ns / s.unchecked_ns);
      TwinTotals& dev = out.per_device[op.dev];
      dev.checked_ns += s.checked_ns;
      dev.unchecked_ns += s.unchecked_ns;
      dev.accesses += s.accesses;
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  tally.ops(index, failed);
  rig.validate(tally, "timed phase");

  if (o.traced) {
    add_self_times(log, out.layers);
    write_trace({&log}, out.layers, o.trace_prefix);
  }
  if (record) {
    for (size_t d = 0; d < kDevices; ++d) {
      Twin& t = first->twin(d);
      out.engines[d] = engine_ledger(
          t.snapshot->cfg, t.checked->device(), recordings[d],
          o.replay_seconds / static_cast<double>(kDevices));
      tally.check(out.engines[d].differential_ok,
                  "engine differential on " + device_names()[d] + ": " +
                      out.engines[d].differential_detail);
    }
  }
  return out;
}

}  // namespace sedbench
