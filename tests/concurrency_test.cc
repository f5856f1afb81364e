// Concurrent multi-VM enforcement (DESIGN.md §9): sharded checkers over
// immutable SpecStore snapshots.
//
// The flagship scenario: 8 shards spanning all five device types replay
// benign workloads on their own threads while a writer thread keeps
// redeploying fresh spec snapshots — and nothing goes wrong: zero
// violations or blocks on benign traffic, zero lost reports, zero
// cross-thread bus accesses, and the fleet aggregate equals the sum of the
// per-shard stats. Run under the TSan preset (SEDSPEC_TSAN) this is also
// the data-race gate for the whole enforcement stack.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "faultinject/faultinject.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "sedspec/enforcement.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

using checker::Report;
using enforce::EnforcementService;
using enforce::RunReport;
using enforce::ServiceConfig;
using enforce::ShardSpec;

std::vector<ShardSpec> make_shards(size_t count, uint64_t ops) {
  const std::vector<std::string>& names = guest::workload_names();
  std::vector<ShardSpec> shards(count);
  for (size_t i = 0; i < count; ++i) {
    shards[i].device = names[i % names.size()];
    shards[i].ops = ops;
    shards[i].seed = 1000 + i;
    shards[i].mode = guest::InteractionMode::kSequential;
  }
  return shards;
}

TEST(Concurrency, EightShardsBenignUnderLiveRedeployStayClean) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, guest::workload_names());
  ASSERT_EQ(store.size(), guest::workload_names().size());

  ServiceConfig config;
  config.spec_poll_ops = 4;
  EnforcementService service(&store, config);
  const std::vector<ShardSpec> shards = make_shards(8, 60);

  // Writer thread: keeps republishing every device's current spec (same
  // content, new version) for the whole run — a live rolling redeploy.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    while (!stop_writer.load(std::memory_order_acquire)) {
      for (const std::string& name : store.device_names()) {
        store.publish(spec::EsCfg(store.current(name)->cfg));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const RunReport report = service.run(shards);
  stop_writer.store(true, std::memory_order_release);
  writer.join();

  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.shards.size(), 8u);

  uint64_t summed_rounds = 0;
  for (const enforce::ShardResult& s : report.shards) {
    SCOPED_TRACE(s.device + "#" + std::to_string(s.shard));
    EXPECT_EQ(s.ops, 60u);
    // Benign traffic against its own trained spec: nothing fires, even
    // while snapshots are being swapped underneath.
    EXPECT_EQ(s.stats.blocked, 0u);
    EXPECT_EQ(s.stats.warnings, 0u);
    for (int strat = 0; strat < 3; ++strat) {
      EXPECT_EQ(s.stats.violations_by_strategy[strat], 0u);
    }
    EXPECT_EQ(s.stats.contained_faults, 0u);
    EXPECT_EQ(s.bus_owner_violations, 0u);
    EXPECT_GT(s.stats.rounds, 0u);
    // Each redeploy strictly advances the pinned version (the writer may
    // publish faster than the shard polls, so versions can skip ahead).
    EXPECT_GE(s.final_spec_version, 1 + s.redeploys);
    summed_rounds += s.stats.rounds;
  }

  // Redeploys actually happened mid-run (the writer publishes every ~1 ms;
  // a shard's 60 checked operations take far longer than that).
  EXPECT_GT(report.total_redeploys, 0u);
  EXPECT_EQ(report.count(Report::Kind::kRedeploy), report.total_redeploys);

  // Stats merge stability: the fleet aggregate is exactly the per-shard sum.
  EXPECT_EQ(report.fleet.rounds, summed_rounds);
  EXPECT_EQ(report.total_ops, 8u * 60u);

  // Report conservation: everything pushed was drained, nothing dropped.
  EXPECT_EQ(report.reports_dropped, 0u);
  EXPECT_EQ(report.reports.size(), report.reports_pushed);
}

// Contained internal faults across live redeploys: every checker a shard
// attaches (its first, and each one a redeploy swaps in) gets two one-shot
// traversal throws through the ShardSpec::checker_hook seam. Fail-open
// containment absorbs each as a degraded round healed by a shadow resync,
// so benign traffic stays violation-free and no report is lost.
TEST(Concurrency, ContainedFaultBurstsUnderLiveRedeployLoseNoReports) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, guest::workload_names());

  ServiceConfig config;
  config.spec_poll_ops = 4;
  EnforcementService service(&store, config);
  std::vector<ShardSpec> shards =
      make_shards(guest::workload_names().size(), 40);

  // Each slot is touched only by its own shard's thread.
  std::vector<const checker::EsChecker*> last_armed(shards.size(), nullptr);
  std::atomic<uint64_t> armed{0};
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].checker.failure_policy = checker::FailurePolicy::kFailOpen;
    shards[i].checker_hook = [&last_armed, &armed, i](
                                 uint64_t op, checker::EsChecker& active) {
      if (last_armed[i] == &active) {
        return;  // already armed this checker
      }
      last_armed[i] = &active;
      faultinject::arm_checker_faults(active,
                                      faultinject::CheckerFaultKind::kThrow, 2,
                                      0x50a4 + 131 * i + op);
      armed.fetch_add(1, std::memory_order_relaxed);
    };
  }

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    while (!stop_writer.load(std::memory_order_acquire)) {
      for (const std::string& name : store.device_names()) {
        store.publish(spec::EsCfg(store.current(name)->cfg));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const RunReport report = service.run(shards);
  stop_writer.store(true, std::memory_order_release);
  writer.join();

  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.fleet.contained_faults, 1u);
  EXPECT_EQ(report.fleet.blocked, 0u);
  for (int strat = 0; strat < 3; ++strat) {
    EXPECT_EQ(report.fleet.violations_by_strategy[strat], 0u);
  }
  EXPECT_EQ(report.reports_dropped, 0u);
  EXPECT_EQ(report.reports.size(), report.reports_pushed);

  // Redeploys happened, and the hook re-armed the checkers they swapped in.
  EXPECT_GT(report.total_redeploys, 0u);
  EXPECT_GT(armed.load(), shards.size());
}

// The poll-boundary checker_hook call comes before that boundary's spec
// poll: a spec republished from inside the hook is deployed at the same
// boundary, and the hook sees the new checker at the same operation index.
// The fleet benchmark times its redeploy stall from this order.
TEST(Concurrency, HookRepublishRedeploysAtTheSameBoundary) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});

  ServiceConfig config;
  config.spec_poll_ops = 8;
  std::vector<ShardSpec> shards = make_shards(1, 40);
  shards[0].device = "fdc";
  // (op, spec version) of every hook call; touched only by the shard.
  std::vector<std::pair<uint64_t, uint64_t>> calls;
  shards[0].checker_hook = [&](uint64_t op, checker::EsChecker& active) {
    calls.emplace_back(op, active.spec_version());
    if (calls.size() == 2) {  // the first poll-boundary call
      store.publish(spec::EsCfg(active.snapshot()->cfg));
    }
  };

  const RunReport report = EnforcementService(&store, config).run(shards);
  ASSERT_TRUE(report.ok()) << report.shards[0].error;
  ASSERT_GE(calls.size(), 3u);
  EXPECT_EQ(calls[0], std::make_pair(uint64_t{0}, uint64_t{1}));
  EXPECT_EQ(calls[1], std::make_pair(uint64_t{8}, uint64_t{1}));
  EXPECT_EQ(calls[2], std::make_pair(uint64_t{8}, uint64_t{2}));
  EXPECT_EQ(report.shards[0].redeploys, 1u);
  EXPECT_EQ(report.shards[0].final_spec_version, 2u);
}

// publish_device_specs builds a fleet's specs concurrently. What it
// publishes must be byte for byte what building one device at a time
// gives, a republish must bump every version with the same bytes, and a
// publish with a failing device must publish nothing.
TEST(Concurrency, PublishedSpecsMatchSequentialBuild) {
  const std::vector<std::string>& names = guest::workload_names();
  std::map<std::string, std::vector<uint8_t>> sequential;
  for (const std::string& name : names) {
    const std::unique_ptr<guest::DeviceWorkload> w = guest::make_workload(name);
    guest::DeviceWorkload* raw = w.get();
    sequential[name] = spec::serialize(
        pipeline::build_spec(w->device(), [raw] { raw->training(); }));
  }

  spec::SpecStore store;
  for (uint64_t version = 1; version <= 2; ++version) {
    SCOPED_TRACE(version);
    enforce::publish_device_specs(store, names);
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      const spec::SnapshotRef snap = store.current(name);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->version, version);
      EXPECT_EQ(spec::serialize(snap->cfg), sequential[name]);
    }
  }

  spec::SpecStore failing;
  EXPECT_THROW(
      enforce::publish_device_specs(failing, {"fdc", "no-such-device"}),
      std::logic_error);
  EXPECT_EQ(failing.current("fdc"), nullptr);
}

TEST(Concurrency, PinnedSnapshotSurvivesStoreSupersession) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});
  const spec::SnapshotRef pinned = store.current("fdc");
  ASSERT_NE(pinned, nullptr);

  // A checker deployed against v1 keeps working after v2/v3 supersede it.
  auto wl = guest::make_workload("fdc");
  checker::EsChecker ck(pinned, &wl->device(), {});
  wl->bus().set_proxy(&ck);
  wl->device().set_internal_activity_hook([&ck] { ck.resync(); });

  store.publish(spec::EsCfg(pinned->cfg));
  store.publish(spec::EsCfg(pinned->cfg));
  EXPECT_EQ(store.version_of("fdc"), 3u);
  EXPECT_EQ(ck.spec_version(), 1u);

  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    wl->common_operation(guest::InteractionMode::kSequential, rng);
  }
  EXPECT_GT(ck.stats().rounds, 0u);
  EXPECT_EQ(ck.stats().blocked, 0u);
  EXPECT_EQ(ck.stats().warnings, 0u);
}

TEST(Concurrency, ShardFailureIsCapturedNotThrown) {
  spec::SpecStore store;  // empty: no spec for any device
  EnforcementService service(&store);
  std::vector<ShardSpec> shards = make_shards(1, 10);
  const RunReport report = service.run(shards);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.shards[0].error.empty());
  EXPECT_EQ(report.shards[0].ops, 0u);
}

// A shard whose thread throws mid-run skips its final undeploy(); the
// counters of its live deployment must still reach the result, so the
// fleet aggregate counts the rounds it checked before the crash.
TEST(Concurrency, CrashedShardKeepsItsCounters) {
  struct TimingOn {
    TimingOn() { obs::set_timing_enabled(true); }
    ~TimingOn() { obs::set_timing_enabled(false); }
  } timing;
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});
  std::vector<ShardSpec> shards = make_shards(1, 100);
  shards[0].device = "fdc";
  shards[0].op_hook = [](uint64_t op) {
    if (op == 50) {
      throw std::runtime_error("shard crashed at op 50");
    }
  };
  const RunReport report = EnforcementService(&store).run(shards);
  ASSERT_EQ(report.shards.size(), 1u);
  const enforce::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.error, "shard crashed at op 50");
  EXPECT_EQ(s.ops, 50u);
  EXPECT_GT(s.stats.rounds, 0u);
  EXPECT_GT(s.bus_accesses, 0u);
  EXPECT_EQ(s.check_latency.count, s.stats.rounds);
  EXPECT_EQ(report.fleet.rounds, s.stats.rounds);
}

// Violating traffic on one shard is attributed to that shard: a mixed run
// where one shard's checker is wired to warn (monitor mode would require
// rare ops; instead give the victim an untrained-op spec mismatch via a
// tiny traversal budget) while siblings stay benign.
TEST(Concurrency, ViolationsAreAttributedToTheEmittingShard) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc", "pcnet"});

  ServiceConfig config;
  config.spec_poll_ops = 0;  // no redeploys: isolate attribution
  EnforcementService service(&store, config);

  std::vector<ShardSpec> shards = make_shards(4, 30);
  shards[0].device = "fdc";
  shards[1].device = "pcnet";
  shards[2].device = "fdc";
  shards[3].device = "pcnet";
  // Victim shard 2: a pathologically small traversal budget makes every
  // checked round a conditional-jump finding; monitor mode keeps it
  // running (and reporting) for the whole run.
  shards[2].checker.max_steps = 1;
  shards[2].checker.monitor_only = true;

  const RunReport report = service.run(shards);
  ASSERT_TRUE(report.ok());

  EXPECT_GT(report.shards[2].stats.violations_by_strategy[2], 0u);
  for (size_t i : {size_t{0}, size_t{1}, size_t{3}}) {
    SCOPED_TRACE(i);
    EXPECT_EQ(report.shards[i].stats.warnings, 0u);
    EXPECT_EQ(report.shards[i].stats.blocked, 0u);
  }
  // Every violation report drained carries the victim's shard id. The
  // victim's burst may overflow the bounded queue — that is the designed
  // overflow policy — so the checks are conservation, not zero-drop:
  // everything accepted was drained, and every drop is accounted to the
  // victim's checker stats.
  size_t victim_reports = 0;
  for (const Report& r : report.reports) {
    if (r.kind == Report::Kind::kViolation) {
      EXPECT_EQ(r.shard, 2u);
      ++victim_reports;
    }
  }
  EXPECT_EQ(victim_reports, report.shards[2].stats.reports_emitted);
  EXPECT_EQ(report.reports.size(), report.reports_pushed);
  // The queue's drop count (single source of truth) matches the victim's
  // offered-minus-emitted derivation — conservation, no double-booking.
  EXPECT_EQ(report.reports_dropped,
            report.shards[2].stats.reports_offered -
                report.shards[2].stats.reports_emitted);
}

// A flight ring has one writer, its shard's checker: a recorder with fewer
// rings than shards is rejected before any shard starts, and with one ring
// per shard a violation bundle freezes the emitting shard's own rounds.
TEST(Concurrency, FlightRingsAreOnePerShard) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc", "pcnet"});
  std::vector<ShardSpec> shards = make_shards(2, 30);
  shards[0].device = "fdc";
  shards[1].device = "pcnet";
  // Victim shard 1: every round is a conditional-jump finding, reported
  // and survived in monitor mode.
  shards[1].checker.max_steps = 1;
  shards[1].checker.monitor_only = true;

  obs::FlightRecorder shared(1);
  ServiceConfig undersized;
  undersized.spec_poll_ops = 0;
  undersized.flight = &shared;
  EXPECT_THROW((void)EnforcementService(&store, undersized).run(shards),
               std::logic_error);
  EXPECT_EQ(shared.shard_ring(0).recorded(), 0u);

  obs::FlightRecorder flight(2);
  ServiceConfig config;
  config.spec_poll_ops = 0;
  config.flight = &flight;
  const RunReport report = EnforcementService(&store, config).run(shards);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report.count(Report::Kind::kViolation), 0u);

  // Every round of a shard lands in its own ring, and only there.
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    obs::EventTracer& ring = flight.shard_ring(i);
    const checker::CheckerStats& st = report.shards[i].stats;
    uint64_t violations = 0;
    for (const uint64_t v : st.violations_by_strategy) {
      violations += v;
    }
    // One io event per round plus one event per violation.
    EXPECT_EQ(ring.recorded(), st.rounds + violations);
    for (const obs::EventTracer::Resolved& r : ring.snapshot_resolved()) {
      EXPECT_EQ(r.cat, shards[i].device);
    }
  }
  // One epoch, so the violation storm froze exactly one bundle, and it is
  // the victim's.
  const std::vector<obs::FlightBundle> bundles = flight.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_GT(flight.suppressed(), 0u);
  EXPECT_EQ(bundles[0].trigger, obs::FlightTrigger::kViolation);
  EXPECT_EQ(bundles[0].shard, 1u);
  ASSERT_FALSE(bundles[0].events.empty());
  for (const obs::FlightBundle::Event& e : bundles[0].events) {
    EXPECT_EQ(e.cat, "pcnet");
  }
}

TEST(Concurrency, ShardLatencyWindowIsItsOwn) {
  // Shards keep stable metric labels across runs, so their latency series
  // are cumulative; each ShardResult must still carry only its own run's
  // samples, merged across a mid-run redeploy and for the shadow
  // candidate alike.
  struct TimingOn {
    TimingOn() { obs::set_timing_enabled(true); }
    ~TimingOn() { obs::set_timing_enabled(false); }
  } timing;
  spec::SpecStore store;
  spec::SpecStore candidates;
  enforce::publish_device_specs(store, {"fdc", "pcnet"});
  candidates.publish(spec::EsCfg(store.current("fdc")->cfg));
  ServiceConfig config;
  config.spec_poll_ops = 8;
  config.candidate_store = &candidates;
  std::vector<ShardSpec> shards = make_shards(2, 40);
  shards[0].device = "fdc";
  shards[0].shadow_candidate = true;
  shards[1].device = "pcnet";
  shards[0].op_hook = [&store](uint64_t op) {
    if (op == 20) {
      store.publish(spec::EsCfg(store.current("fdc")->cfg));
    }
  };
  const obs::Histogram& series = obs::metrics().histogram(
      "checker_check_latency_ns",
      obs::label({{"device", "fdc#0"}, {"strategies", "all"}}));
  const uint64_t before = series.count();

  uint64_t rounds = 0;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    const RunReport report = EnforcementService(&store, config).run(shards);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.shards[0].redeploys, 1u);
    for (const enforce::ShardResult& s : report.shards) {
      SCOPED_TRACE(s.device);
      EXPECT_GT(s.stats.rounds, 0u);
      EXPECT_EQ(s.check_latency.count, s.stats.rounds);
      EXPECT_EQ(s.shadow_check_latency.count, s.shadow_stats.rounds);
    }
    EXPECT_GT(report.shards[0].shadow_stats.rounds, 0u);
    rounds += report.shards[0].stats.rounds;
  }
  // The registry series itself holds both runs.
  EXPECT_EQ(series.count() - before, rounds);
}

}  // namespace
}  // namespace sedspec
