// EnforcementService — concurrent multi-VM runtime protection.
//
// The paper evaluates one ES-Checker guarding one emulated device; a real
// hypervisor host runs many VMs, each with its own device instances, all
// protected at once. This layer models that deployment:
//
//   - A shared SpecStore holds the current immutable ES-CFG snapshot per
//     device type (copy-on-write redeploy, see spec/spec_store.h).
//   - Each *shard* is one VM's device: its own DeviceWorkload (device, bus,
//     guest memory, driver model), its own EsChecker + shadow StateArena,
//     driven by its own thread. Nothing mutable is shared between shards —
//     the single-threaded discipline is enforced with IoBus owner binding.
//   - Shards pin the snapshot they deployed. One reconcile step, before
//     the first operation and every `spec_poll_ops` operations, compares
//     what the shard should run (spec version, canary candidate, policy
//     version) with what it runs, and on a difference builds fresh
//     checkers and swaps them in *between* guest operations. The old
//     snapshot dies with the old checker.
//   - Violation/containment reports flow through one bounded lock-free
//     ReportQueue (checker/report_queue.h) to a consumer thread; the check
//     hot path never blocks on reporting.
//
// See DESIGN.md §9 for the full concurrency model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/report_queue.h"
#include "control/policy.h"
#include "guest/workload.h"
#include "spec/spec_store.h"
#include "vdev/bus.h"

namespace sedspec::obs {
class FlightRecorder;
}  // namespace sedspec::obs

namespace sedspec::enforce {

/// VM identity of shard `shard` for policy inheritance (tenant → VM →
/// device): every shard is its own VM, "vm<shard>".
[[nodiscard]] inline std::string shard_vm(size_t shard) {
  return "vm" + std::to_string(shard);
}

/// Spec-fetch retries before a fetch counts as exhausted (see
/// ServiceConfig::spec_fetch).
inline constexpr uint32_t kRedeployMaxRetries = 4;

/// One VM's protected device shard.
struct ShardSpec {
  std::string device;  // workload name (guest::workload_names())
  uint64_t ops = 1000;  // benign common operations to drive
  uint64_t seed = 1;    // per-shard deterministic RNG seed
  guest::InteractionMode mode = guest::InteractionMode::kSequential;
  checker::CheckerConfig checker;  // metrics_label defaults to device#shard
  /// The VM owner opted out of enforcement. Honored ONLY while no policy
  /// layer sets the `enforce` bit for this device — the tighten-only
  /// model lets the fleet override this with one write.
  bool unprotected = false;
  /// Canary shard: additionally evaluate the candidate spec (from
  /// ServiceConfig::candidate_store) in shadow mode — monitor-only, its
  /// verdicts are recorded in ShardResult::shadow_* but never block.
  bool shadow_candidate = false;
  /// Fault-injection seam (control-plane campaign): called before every
  /// guest operation with the operation index; throwing models a shard
  /// crash mid-window (captured in ShardResult::error, never escapes).
  std::function<void(uint64_t op)> op_hook;
  /// Live-checker seam (fault arming, benchmark republish cadence):
  /// invoked with the currently installed active checker right after
  /// every (re)deploy and at every spec-poll boundary, where it runs
  /// before the boundary's reconcile (a spec it republishes is deployed at
  /// that boundary, and the hook then sees the new checker with the same
  /// op). Redeploys swap checkers — per-checker state like fault hooks
  /// does not survive the swap — so a fault injector uses this to (re)arm
  /// whatever checker is live. Runs on the shard thread, strictly between
  /// guest operations.
  std::function<void(uint64_t op, checker::EsChecker& active)> checker_hook;
};

struct ServiceConfig {
  size_t report_queue_capacity = 1024;
  /// Reconcile every N operations (0 = only before the first): redeploy
  /// on a newer spec, a new candidate or a policy write, and retry a fetch
  /// that left the shard unprotected.
  uint64_t spec_poll_ops = 64;
  /// Per-access VM-exit cost and how it is paid (see IoBus). Throughput
  /// scaling runs use kSleep so shards overlap their I/O waits.
  uint64_t bus_access_latency_ns = 0;
  IoBus::LatencyModel latency_model = IoBus::LatencyModel::kSpin;

  /// Candidate-spec store for shadow-mode canaries (nullptr = no shadow).
  /// Shards with shadow_candidate pin the candidate snapshot for their
  /// device alongside the active one.
  spec::SpecStore* candidate_store = nullptr;

  /// Tighten-only policy hierarchy (nullptr = no policy layer). Effective
  /// bits are applied to every checker config at deploy time; every
  /// reconcile polls the tree's version, so one policy write redeploys the
  /// fleet, and one that sets `enforce` deploys a checker on an opted-out
  /// shard.
  const control::PolicyTree* policy = nullptr;

  /// Spec distribution seam: how a shard fetches the current snapshot for
  /// a device. Default (unset) reads the store directly and cannot fail;
  /// a control plane (or fault injector) models the distribution channel
  /// here — transient LoadErrors are retried with bounded exponential
  /// backoff + jitter, counted in CheckerStats::redeploy_retries and the
  /// `redeploy_retries_total{shard}` obs counter. A fetch that still
  /// fails after kRedeployMaxRetries leaves the shard on its pinned
  /// last-known-good snapshot, or unprotected until its next poll when it
  /// has none (ShardResult::redeploy_failures). A shard to be protected
  /// that gets no snapshot before its first operation fails.
  using SpecFetcher =
      std::function<spec::LoadError(const std::string& device,
                                    spec::SnapshotRef& out)>;
  SpecFetcher spec_fetch;
  uint64_t redeploy_backoff_base_us = 50;
  uint64_t redeploy_backoff_max_us = 2000;

  /// Flight recorder (nullptr = off), one ring per shard: shard i's
  /// active checker records its rounds into `flight->shard_ring(i)`, its
  /// ring's only writer, and the report consumer freezes shard i's ring
  /// into an incident bundle when a violation, quarantine, or
  /// degraded-mode report from it is drained (see obs/flight.h). run()
  /// rejects a recorder with fewer rings than shards. Must outlive run().
  obs::FlightRecorder* flight = nullptr;
};

struct ShardResult {
  std::string device;
  uint32_t shard = 0;
  uint64_t ops = 0;        // operations actually driven
  uint64_t redeploys = 0;  // checker swaps after a store version change
  uint64_t redeploy_failures = 0;  // mid-run fetches that exhausted retries
  uint64_t policy_redeploys = 0;   // deploys a policy write caused
  uint64_t final_spec_version = 0;
  uint64_t bus_accesses = 0;
  uint64_t bus_owner_violations = 0;
  checker::CheckerStats stats;  // accumulated across redeploy swaps
  /// This run's check latencies (EsChecker::check_latency), merged across
  /// redeploy swaps; empty while timing is off.
  obs::Histogram::State check_latency;
  /// Shadow-mode candidate accounting (shadow_candidate shards only).
  checker::CheckerStats shadow_stats;
  obs::Histogram::State shadow_check_latency;
  uint64_t shadow_spec_version = 0;
  /// Rounds where the candidate flagged what the active spec passed — the
  /// would-be-false-positive signal the rollout engine watches.
  uint64_t shadow_would_block = 0;
  /// True when the shard finished with a checker attached (policy may
  /// force this even for unprotected shards).
  bool ended_protected = false;
  std::string error;            // non-empty: the shard thread failed

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct RunReport {
  std::vector<ShardResult> shards;
  /// Sum of every shard's accumulated CheckerStats.
  checker::CheckerStats fleet;
  /// Sum of every canary shard's shadow-candidate CheckerStats.
  checker::CheckerStats shadow_fleet;
  /// Everything the consumer drained from the report queue, in drain order.
  std::vector<checker::Report> reports;
  uint64_t reports_pushed = 0;
  uint64_t reports_dropped = 0;  // queue-full drops (checker + redeploy)
  uint64_t total_ops = 0;
  uint64_t total_redeploys = 0;
  uint64_t total_shadow_would_block = 0;

  [[nodiscard]] bool ok() const {
    for (const ShardResult& s : shards) {
      if (!s.ok()) {
        return false;
      }
    }
    return !shards.empty();
  }
  [[nodiscard]] size_t count(checker::Report::Kind kind) const;
};

/// Offline fleet provisioning: builds a spec for every named device type
/// (phases 1+2, pipeline::build_spec) and publishes each into `store`, in
/// the given order (version 1, or prev+1 on republish). Each device is one
/// job on its own thread that makes its own workload, builds the spec and
/// frees the workload, so the call takes as long as the slowest device.
/// The first exception any job raises (an unknown device name throws
/// std::logic_error) is rethrown after all jobs have joined, and then
/// nothing is published.
void publish_device_specs(spec::SpecStore& store,
                          const std::vector<std::string>& devices);

class EnforcementService {
 public:
  /// `store` must outlive the service and hold a spec for every device
  /// type the shards name before run() is called.
  EnforcementService(spec::SpecStore* store, ServiceConfig config = {});

  /// Runs every shard on its own thread plus one report-consumer thread;
  /// returns when all shards have finished and the queue is fully drained.
  /// A shard failure is captured in its ShardResult, never thrown; a
  /// config.flight with fewer rings than `shards` throws before any shard
  /// starts.
  [[nodiscard]] RunReport run(const std::vector<ShardSpec>& shards);

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  void run_shard(const ShardSpec& spec, uint32_t shard_id,
                 checker::ReportQueue& queue, ShardResult& result);

  spec::SpecStore* store_;
  ServiceConfig config_;
};

}  // namespace sedspec::enforce
