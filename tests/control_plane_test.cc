// ControlPlane end-to-end: canaried promotion, shadow-mode safety, metric
// guardrails, crash recovery, retry/backoff on the spec-distribution
// channel, and publish/pin races under the rollout engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "control/control_plane.h"
#include "guest/exploits.h"
#include "guest/workload.h"
#include "obs/metrics.h"
#include "sedspec/pipeline.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

using control::ControlPlane;
using control::RolloutConfig;
using control::RolloutState;
using control::StageVerdict;

spec::EsCfg build_fdc_spec() {
  auto w = guest::make_workload("fdc");
  return pipeline::build_spec(w->device(), [&] { w->training(); });
}

/// A deliberately over-tight candidate: trained on a tiny slice of the
/// benign mix, so ordinary traffic hits untrained keys and the candidate
/// flags rounds the real baseline passes — the would-be-false-positive
/// signature the shadow stage must catch.
spec::EsCfg build_undertrained_fdc_spec() {
  auto w = guest::make_workload("fdc");
  Rng rng(99);
  return pipeline::build_spec(w->device(), [&] {
    for (int i = 0; i < 2; ++i) {
      w->common_operation(guest::InteractionMode::kSequential, rng);
    }
  });
}

std::vector<enforce::ShardSpec> fdc_fleet(size_t n) {
  std::vector<enforce::ShardSpec> fleet(n);
  for (size_t i = 0; i < n; ++i) {
    fleet[i].device = "fdc";
    fleet[i].seed = 11 + i;
  }
  return fleet;
}

RolloutConfig quick_rollout() {
  RolloutConfig cfg;
  cfg.stage_fractions = {0.5, 1.0};
  cfg.observe_ops = 24;
  cfg.max_stage_retries = 2;
  return cfg;
}

TEST(ControlPlane, GoodCandidatePromotesThroughAllStages) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  ControlPlane cp(&active);
  cp.stage_candidate(spec::EsCfg(base));

  const auto out = cp.run_rollout("fdc", fdc_fleet(4), quick_rollout());
  ASSERT_TRUE(out.promoted()) << out.record.reason;
  EXPECT_EQ(active.version_of("fdc"), 2u);  // candidate published
  EXPECT_GT(out.total_ops, 0u);

  // Every window was clean and none saw a shadow block.
  for (const control::WindowRecord& w : out.windows) {
    EXPECT_EQ(w.decision.verdict, StageVerdict::kPromote) << w.decision.reason;
    EXPECT_EQ(w.observation.candidate_blocked, 0u);
  }
  // Stage 0 canaried half the fleet, stage 1 all of it.
  EXPECT_EQ(out.windows[0].observation.shadow_shards, 2u);
  EXPECT_EQ(out.windows[1].observation.shadow_shards, 4u);

  // The journal walked the full state machine, ending terminal.
  std::vector<RolloutState> states;
  for (const auto& bytes : cp.journal()) {
    control::RolloutRecord rec;
    ASSERT_TRUE(control::RolloutRecord::load(bytes, rec).ok());
    states.push_back(rec.state);
  }
  const std::vector<RolloutState> expect{
      RolloutState::kStaging, RolloutState::kShadow, RolloutState::kShadow,
      RolloutState::kPromoting, RolloutState::kActive};
  EXPECT_EQ(states, expect);
}

TEST(ControlPlane, RolloutsRegisterNoNewMetricSeries) {
  // Shards keep their labels from window to window and rollout to
  // rollout, so repeated rollouts reuse the registry's series.
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));
  ControlPlane cp(&active);
  auto series_count = [] {
    obs::MetricsRegistry::Frozen f;
    obs::metrics().freeze(f);
    return f.counters.size() + f.gauges.size() + f.histograms.size();
  };
  size_t after_first = 0;
  for (int rollout = 0; rollout < 5; ++rollout) {
    SCOPED_TRACE(rollout);
    cp.stage_candidate(spec::EsCfg(base));
    const auto out = cp.run_rollout("fdc", fdc_fleet(4), quick_rollout());
    ASSERT_TRUE(out.promoted()) << out.record.reason;
    ASSERT_EQ(out.windows.size(), 3u);
    if (rollout == 0) {
      after_first = series_count();
    } else {
      EXPECT_EQ(series_count(), after_first);
    }
  }
}

TEST(ControlPlane, OverTightCandidateRollsBackInShadow) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  const std::vector<uint8_t> base_bytes = spec::serialize(base);
  active.publish(spec::EsCfg(base));

  ControlPlane cp(&active);
  cp.stage_candidate(build_undertrained_fdc_spec());

  const auto out = cp.run_rollout("fdc", fdc_fleet(4), quick_rollout());
  ASSERT_FALSE(out.promoted());
  EXPECT_EQ(out.record.state, RolloutState::kRolledBack);
  EXPECT_EQ(out.windows.back().decision.verdict, StageVerdict::kRollback);
  // The candidate flagged benign rounds the baseline passed...
  EXPECT_GT(out.windows.back().observation.would_block, 0u);
  // ...but, being a shadow, never once blocked the I/O itself.
  for (const control::WindowRecord& w : out.windows) {
    EXPECT_EQ(w.observation.candidate_blocked, 0u);
  }
  // Baseline untouched and still the active spec, byte for byte.
  EXPECT_EQ(active.version_of("fdc"), 1u);
  EXPECT_EQ(spec::serialize(active.current("fdc")->cfg), base_bytes);
}

TEST(ControlPlane, ShadowCandidateNeverBlocksBenignTraffic) {
  // Drive the enforcement service directly with an over-tight shadow
  // candidate: the candidate must record findings without ever vetoing.
  spec::SpecStore active;
  active.publish(build_fdc_spec());
  spec::SpecStore candidates;
  candidates.publish(build_undertrained_fdc_spec());

  enforce::ServiceConfig svc;
  svc.candidate_store = &candidates;
  auto fleet = fdc_fleet(2);
  for (auto& s : fleet) {
    s.ops = 200;
    s.shadow_candidate = true;
  }
  enforce::EnforcementService service(&active, svc);
  const enforce::RunReport report = service.run(fleet);
  ASSERT_TRUE(report.ok());

  EXPECT_GT(report.total_shadow_would_block, 0u);  // candidate disagreed...
  EXPECT_EQ(report.shadow_fleet.blocked, 0u);      // ...but never blocked
  EXPECT_EQ(report.fleet.blocked, 0u);             // active spec stayed clean
  EXPECT_GT(report.shadow_fleet.rounds, 0u);
  for (const auto& s : report.shards) {
    EXPECT_EQ(s.shadow_spec_version, 1u);
    EXPECT_EQ(s.ops, 200u);  // every benign op ran to completion
  }
}

TEST(ControlPlane, MetricDelayRetriesThenRollsBackWhenStarved) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  ControlPlane cp(&active);
  cp.stage_candidate(spec::EsCfg(base));
  // Starve the feed forever: every window is inconclusive, and the stage
  // must exhaust its retries into a rollback rather than promote blind.
  cp.observe_filter = [](control::StageObservation& o) {
    o.shadow_rounds = 0;
  };
  const auto out = cp.run_rollout("fdc", fdc_fleet(2), quick_rollout());
  EXPECT_EQ(out.record.state, RolloutState::kRolledBack);
  EXPECT_EQ(out.windows.size(), 3u);  // 1 + max_stage_retries windows
  for (const auto& w : out.windows) {
    EXPECT_EQ(w.decision.verdict, StageVerdict::kRetry);
  }
  EXPECT_EQ(active.version_of("fdc"), 1u);
}

TEST(ControlPlane, CrashResumeFromEveryJournalPrefixEndsTerminal) {
  const spec::EsCfg base = build_fdc_spec();
  const std::vector<uint8_t> base_bytes = spec::serialize(base);

  // Run one full promoting rollout to gather a realistic journal.
  spec::SpecStore first_store;
  first_store.publish(spec::EsCfg(base));
  ControlPlane first(&first_store);
  first.stage_candidate(spec::EsCfg(base));
  ASSERT_TRUE(first.run_rollout("fdc", fdc_fleet(2), quick_rollout())
                  .promoted());

  // Crash-restart against every persisted record: whatever instant the
  // crash hit, recovery must end terminal with the baseline enforcing.
  for (const std::vector<uint8_t>& record : first.journal()) {
    spec::SpecStore store;
    store.publish(spec::EsCfg(base));
    ControlPlane cp(&store);
    const control::ResumeResult r = cp.resume(record);
    ASSERT_TRUE(r.load_error.ok());
    EXPECT_TRUE(control::rollout_terminal(r.record.state)) << r.action;

    control::RolloutRecord original;
    ASSERT_TRUE(control::RolloutRecord::load(record, original).ok());
    if (original.state == RolloutState::kPromoting) {
      // The dangerous instant: candidate may or may not have been
      // published. Recovery republishes the embedded baseline.
      EXPECT_TRUE(r.republished_baseline);
      EXPECT_EQ(r.record.state, RolloutState::kRolledBack);
    }
    // Whatever happened, the active spec is the baseline, byte for byte.
    EXPECT_EQ(spec::serialize(store.current("fdc")->cfg), base_bytes);
  }
}

TEST(ControlPlane, TransientFetchFailuresAbsorbedByRetry) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  auto failures = std::make_shared<std::atomic<int>>(3);
  enforce::ServiceConfig svc;
  svc.redeploy_backoff_base_us = 5;
  svc.redeploy_backoff_max_us = 50;
  svc.spec_fetch = [failures, &active](const std::string& device,
                                       spec::SnapshotRef& out) {
    if (failures->fetch_sub(1, std::memory_order_relaxed) > 0) {
      spec::LoadError e;
      e.status = spec::LoadStatus::kCrcMismatch;
      e.detail = "transient (injected)";
      return e;
    }
    out = active.current(device);
    return spec::LoadError{};
  };

  const uint64_t retries_before =
      obs::metrics()
          .counter("redeploy_retries_total", obs::label({{"shard", "0"}}))
          .value();

  enforce::EnforcementService service(&active, svc);
  auto fleet = fdc_fleet(1);
  fleet[0].ops = 50;
  const enforce::RunReport report = service.run(fleet);
  ASSERT_TRUE(report.ok()) << report.shards[0].error;

  // All three transient failures were retried through (stat + labeled obs
  // counter), none exhausted the budget, and the shard deployed fine.
  EXPECT_EQ(report.fleet.redeploy_retries, 3u);
  EXPECT_EQ(report.shards[0].redeploy_failures, 0u);
  EXPECT_TRUE(report.shards[0].ended_protected);
  const uint64_t retries_after =
      obs::metrics()
          .counter("redeploy_retries_total", obs::label({{"shard", "0"}}))
          .value();
  EXPECT_EQ(retries_after - retries_before, 3u);
}

TEST(ControlPlane, FetchExhaustionKeepsLastKnownGoodSpec) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  // The channel serves the initial deploy, then goes hard-down before the
  // mid-run redeploy triggered at op 60.
  auto served = std::make_shared<std::atomic<int>>(1);
  enforce::ServiceConfig svc;
  svc.spec_poll_ops = 16;
  svc.redeploy_backoff_base_us = 5;
  svc.redeploy_backoff_max_us = 50;
  svc.spec_fetch = [served, &active](const std::string& device,
                                     spec::SnapshotRef& out) {
    if (served->fetch_sub(1, std::memory_order_relaxed) > 0) {
      out = active.current(device);
      return spec::LoadError{};
    }
    spec::LoadError e;
    e.status = spec::LoadStatus::kTooShort;
    e.detail = "channel down (injected)";
    return e;
  };

  auto fleet = fdc_fleet(1);
  fleet[0].ops = 200;
  fleet[0].op_hook = [&active, &base](uint64_t op) {
    if (op == 60) {
      active.publish(spec::EsCfg(base));  // v2 appears mid-run
    }
  };
  enforce::EnforcementService service(&active, svc);
  const enforce::RunReport report = service.run(fleet);
  ASSERT_TRUE(report.ok()) << report.shards[0].error;

  // The redeploy fetch exhausted its retries; the shard stayed pinned on
  // v1 and kept enforcing to the end.
  EXPECT_GE(report.shards[0].redeploy_failures, 1u);
  EXPECT_GT(report.fleet.redeploy_retries, 0u);
  EXPECT_EQ(report.shards[0].final_spec_version, 1u);
  EXPECT_EQ(report.shards[0].redeploys, 0u);
  EXPECT_TRUE(report.shards[0].ended_protected);
  EXPECT_EQ(report.shards[0].ops, 200u);
}

// Publish/pin race: both stores are republished continuously while the
// rollout engine runs shadow windows that pin, poll, and swap snapshots.
// TSan (tsan_concurrency_lane) watches the memory orderings; here we
// assert the engine still lands terminal with coherent results.
TEST(ControlPlaneRaces, PublishPinRaceUnderRolloutEngine) {
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  ControlPlane cp(&active);
  cp.stage_candidate(spec::EsCfg(base));

  std::atomic<bool> stop{false};
  std::thread active_publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      active.publish(spec::EsCfg(base));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread candidate_publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cp.candidate_store().publish(spec::EsCfg(base));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  RolloutConfig cfg = quick_rollout();
  cfg.observe_ops = 64;
  const auto out = cp.run_rollout("fdc", fdc_fleet(4), cfg);
  stop.store(true, std::memory_order_release);
  active_publisher.join();
  candidate_publisher.join();

  // Same-content republishes can only produce clean windows: the rollout
  // must end terminal (promoted, given identical bytes) with zero shadow
  // blocks, however the pins and publishes interleaved.
  EXPECT_TRUE(control::rollout_terminal(out.record.state));
  for (const auto& w : out.windows) {
    EXPECT_EQ(w.observation.candidate_blocked, 0u);
  }
  ASSERT_FALSE(cp.journal().empty());
  control::RolloutRecord last;
  ASSERT_TRUE(control::RolloutRecord::load(cp.journal().back(), last).ok());
  EXPECT_TRUE(control::rollout_terminal(last.state));
}

// The acceptance gate from the paper's security table: every CVE exploit
// is still detected/blocked exactly per Table III while a live shadow
// rollout is running in the same process (shared metrics registry, spec
// stores churning, canary checkers deploying).
TEST(ControlPlaneRaces, ExploitMatrixHoldsDuringLiveShadowRollout) {
  struct Outcome {
    std::string cve;
    bool expect_detected;
    bool detected;
  };
  spec::SpecStore active;
  const spec::EsCfg base = build_fdc_spec();
  active.publish(spec::EsCfg(base));

  std::vector<Outcome> outcomes;
  std::atomic<bool> victim_done{false};
  std::thread victim([&] {
    for (const guest::ExploitScenario& sc : guest::exploit_scenarios()) {
      const guest::RunResult r = sc.run(guest::RunMode::kAllStrategies);
      outcomes.push_back({sc.info().cve, sc.info().expect_detected,
                          r.violations[0] + r.violations[1] +
                                  r.violations[2] >
                              0});
    }
    victim_done.store(true, std::memory_order_release);
  });

  uint64_t rollouts = 0;
  do {
    ControlPlane cp(&active);
    cp.stage_candidate(spec::EsCfg(base));
    const auto out = cp.run_rollout("fdc", fdc_fleet(2), quick_rollout());
    EXPECT_TRUE(control::rollout_terminal(out.record.state));
    ++rollouts;
  } while (!victim_done.load(std::memory_order_acquire));
  victim.join();

  EXPECT_GT(rollouts, 0u);
  for (const Outcome& o : outcomes) {
    EXPECT_EQ(o.detected, o.expect_detected)
        << o.cve << " changed detection while a shadow rollout was live";
  }
}

}  // namespace
}  // namespace sedspec
