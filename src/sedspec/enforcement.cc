#include "sedspec/enforcement.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/flight.h"
#include "sedspec/pipeline.h"

namespace sedspec::enforce {

size_t RunReport::count(checker::Report::Kind kind) const {
  size_t n = 0;
  for (const checker::Report& r : reports) {
    if (r.kind == kind) {
      ++n;
    }
  }
  return n;
}

void publish_device_specs(spec::SpecStore& store,
                          const std::vector<std::string>& devices) {
  // The training run mutates the device, so each job makes its own
  // throwaway workload, and frees it as soon as its spec is built; making it
  // inside the job keeps its construction off the other devices' critical
  // path. The ES-CFG is device-instance-independent and is what the store
  // shares across shards.
  std::vector<spec::EsCfg> specs(devices.size());
  std::vector<std::exception_ptr> errors(devices.size());
  std::vector<std::thread> jobs;
  jobs.reserve(devices.size());
  for (size_t i = 0; i < devices.size(); ++i) {
    jobs.emplace_back([&, i] {
      try {
        const std::unique_ptr<guest::DeviceWorkload> w =
            guest::make_workload(devices[i]);
        specs[i] = pipeline::build_spec(w->device(), [&w] { w->training(); });
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : jobs) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
  for (spec::EsCfg& cfg : specs) {
    const spec::SnapshotRef snap = store.publish(std::move(cfg));
    log_info("enforce") << "published spec '" << snap->device_name
                        << "' v" << snap->version;
  }
}

EnforcementService::EnforcementService(spec::SpecStore* store,
                                       ServiceConfig config)
    : store_(store), config_(config) {
  SEDSPEC_REQUIRE(store != nullptr);
}

namespace {

/// Shadow-mode composite proxy: the candidate checker evaluates every
/// access the active checker does, but only the active verdict gates the
/// bus. Candidate-first ordering plus the candidate's forced monitor-only
/// config means a candidate finding can never turn into a block — the
/// rollout engine's core safety property.
class ShadowPair final : public IoProxy {
 public:
  ShadowPair(checker::EsChecker* active, checker::EsChecker* candidate)
      : active_(active), candidate_(candidate) {}

  bool before_access(Device& device, const IoAccess& io) override {
    candidate_->before_access(device, io);
    const bool allow = active_->before_access(device, io);
    if (!candidate_->last_result().clean() &&
        active_->last_result().clean()) {
      // The candidate flagged a round the active spec passed: the
      // would-be-false-positive signature (an over-tight candidate would
      // break benign I/O if promoted).
      ++would_block_;
    }
    if (!allow) {
      // The active checker vetoed (or quarantined) — its recovery path may
      // have reset the device, so resynchronize the candidate's shadow to
      // keep the two simulations coherent.
      candidate_->resync();
    }
    return allow;
  }

  void after_access(Device& device, const IoAccess& io) override {
    active_->after_access(device, io);
    candidate_->after_access(device, io);
  }

  [[nodiscard]] uint64_t would_block() const { return would_block_; }

 private:
  checker::EsChecker* active_;
  checker::EsChecker* candidate_;
  uint64_t would_block_ = 0;
};

/// Shadow candidates observe, never enforce: monitor-only (no block/halt),
/// fail-open (an internal candidate fault must not quarantine-reset the
/// device the ACTIVE checker is protecting), no rollback checkpointing.
checker::CheckerConfig shadow_config(checker::CheckerConfig base) {
  base.monitor_only = true;
  base.mode = checker::Mode::kEnhancement;
  base.failure_policy = checker::FailurePolicy::kFailOpen;
  base.rollback_on_violation = false;
  if (!base.metrics_label.empty()) {
    base.metrics_label += "~cand";
  }
  return base;
}

/// Runs `f` when the scope ends, normally or by an exception.
template <typename F>
struct ScopeExit {
  F f;
  ~ScopeExit() { f(); }
};

}  // namespace

void EnforcementService::run_shard(const ShardSpec& spec, uint32_t shard_id,
                                   checker::ReportQueue& queue,
                                   ShardResult& result) {
  std::unique_ptr<guest::DeviceWorkload> workload =
      guest::make_workload(spec.device);
  IoBus& bus = workload->bus();
  bus.set_access_latency_ns(config_.bus_access_latency_ns);
  bus.set_access_latency_model(config_.latency_model);
  // Binds the bus to this shard thread so cross-thread accesses are
  // counted (tests assert the count stays zero).
  bus.bind_owner_thread();

  const std::string vm = shard_vm(shard_id);
  Rng rng(spec.seed);
  Rng backoff_rng = rng.fork();  // independent jitter stream
  obs::Counter* retry_counter = &obs::metrics().counter(
      "redeploy_retries_total",
      obs::label({{"shard", std::to_string(shard_id)}}));

  const control::PolicyTree* pt = config_.policy;
  auto policy_bits = [&]() {
    return pt == nullptr ? control::PolicyBits{}
                         : pt->effective(vm, spec.device);
  };
  // Spec distribution with bounded retry: transient fetch failures back
  // off exponentially with jitter; exhaustion leaves the shard on its
  // pinned last-known-good snapshot, version `deployed` (0 = no checker
  // deployed, so the shard stays unprotected until the next poll).
  auto fetch_with_retry = [&](bool count_failure,
                              uint64_t deployed) -> spec::SnapshotRef {
    for (uint32_t attempt = 0;; ++attempt) {
      spec::SnapshotRef out;
      spec::LoadError err;
      if (config_.spec_fetch) {
        err = config_.spec_fetch(spec.device, out);
      } else {
        out = store_->current(spec.device);
      }
      if (err.ok()) {
        return out;
      }
      if (attempt >= kRedeployMaxRetries) {
        if (count_failure) {
          ++result.redeploy_failures;
          log_warn("enforce")
              << spec.device << "#" << shard_id
              << ": spec fetch failed after " << attempt << " retries, "
              << (deployed != 0
                      ? "staying on last-known-good v" + std::to_string(deployed)
                      : std::string("unprotected until the next poll"))
              << " (" << err.describe() << ")";
        }
        return nullptr;
      }
      ++result.stats.redeploy_retries;
      retry_counter->inc();
      const uint64_t cap = std::max<uint64_t>(
          1, std::min(config_.redeploy_backoff_base_us << attempt,
                      config_.redeploy_backoff_max_us));
      const uint64_t jittered = cap / 2 + backoff_rng.below(cap / 2 + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(jittered));
    }
  };

  // The live deployment: active checker, optional shadow candidate, and
  // the proxy actually installed on the bus. Swapped as one unit between
  // guest operations.
  struct Deployment {
    std::unique_ptr<checker::EsChecker> active;
    std::unique_ptr<checker::EsChecker> candidate;
    std::unique_ptr<ShadowPair> pair;
  };
  Deployment dep;
  // What `dep` was built from: active and candidate spec versions (0 =
  // none; published versions start at 1) and the policy version.
  struct Built {
    uint64_t active = 0;
    uint64_t candidate = 0;
    uint64_t policy = 0;
    bool operator==(const Built&) const = default;
  };
  Built built;

  // Folds the outgoing deployment's counters into the result. Called at
  // every swap and once by the teardown (fold_on_exit below).
  auto accumulate = [&] {
    if (dep.active != nullptr) {
      result.stats.merge(dep.active->stats());
      result.check_latency.merge(dep.active->check_latency());
    }
    if (dep.candidate != nullptr) {
      result.shadow_stats.merge(dep.candidate->stats());
      result.shadow_check_latency.merge(dep.candidate->check_latency());
      result.shadow_spec_version = dep.candidate->spec_version();
    }
    if (dep.pair != nullptr) {
      result.shadow_would_block += dep.pair->would_block();
    }
  };

  // (Re)deploys from the given snapshots: fresh checkers wired to the
  // shared report queue, installed as this shard's bus proxy strictly
  // between guest operations. Policy is applied at every deploy, so the
  // effective config always reflects the latest policy write.
  auto deploy = [&](spec::SnapshotRef active_snap,
                    spec::SnapshotRef cand_snap) {
    checker::CheckerConfig ccfg = spec.checker;
    if (ccfg.metrics_label.empty()) {
      ccfg.metrics_label = spec.device + "#" + std::to_string(shard_id);
    }
    if (pt != nullptr) {
      ccfg = control::apply_policy(policy_bits(), ccfg);
    }
    Deployment next;
    checker::CheckerHooks hooks;
    hooks.report_sink = &queue;
    hooks.shard_id = shard_id;
    if (config_.flight != nullptr) {
      hooks.local_tracer = &config_.flight->shard_ring(shard_id);
    }
    next.active = std::make_unique<checker::EsChecker>(
        std::move(active_snap), &workload->device(), ccfg, std::move(hooks));
    if (cand_snap != nullptr) {
      next.candidate = std::make_unique<checker::EsChecker>(
          std::move(cand_snap), &workload->device(), shadow_config(ccfg));
      next.pair = std::make_unique<ShadowPair>(next.active.get(),
                                               next.candidate.get());
    }
    // Folded only once the new checkers exist: if building them throws,
    // `dep` is still live and unfolded, and fold_on_exit counts it once.
    accumulate();
    if (next.pair != nullptr) {
      bus.set_proxy(next.pair.get());
    } else {
      bus.set_proxy(next.active.get());
    }
    checker::EsChecker* a = next.active.get();
    checker::EsChecker* c = next.candidate.get();
    workload->device().set_internal_activity_hook([a, c] {
      a->resync();
      if (c != nullptr) {
        c->resync();
      }
    });
    dep = std::move(next);
    // Re-arm seam: checker-local state (fault hooks, flight wiring beyond
    // the recorder ring) dies with the outgoing checker.
    if (spec.checker_hook) {
      spec.checker_hook(result.ops, *dep.active);
    }
  };

  // The one teardown, on the normal and the throwing exit alike (an
  // op_hook crash, a failing deploy): folds the live deployment and the bus
  // totals into the result, so RunReport::fleet counts a crashed shard's
  // rounds, then detaches the checkers from the bus and the device.
  const ScopeExit fold_on_exit{[&] {
    accumulate();
    result.bus_accesses = bus.access_count();
    result.bus_owner_violations = bus.owner_violations();
    bus.set_proxy(nullptr);
    workload->device().set_internal_activity_hook({});
  }};

  // The one deployment step, run before the first operation and at every
  // poll boundary. It wants no checker while none is deployed and the
  // shard opted out with no policy layer overriding that (tighten-only:
  // the fleet can force enforcement on, nothing can force it off).
  // Otherwise it wants the active snapshot (fetched with retry when none
  // is deployed or the store's version moved; an exhausted fetch keeps
  // what is deployed), the canary candidate and the policy version, and
  // deploys only when one of those moved.
  auto reconcile = [&](bool first) {
    if (dep.active == nullptr && spec.unprotected && !policy_bits().enforce) {
      return;
    }
    // Read before deploy() applies the bits, so `built.policy` is never
    // newer than the config it stands for.
    Built want{.policy = pt == nullptr ? 0 : pt->version()};
    spec::SnapshotRef active;
    if (dep.active == nullptr ||
        store_->version_of(spec.device) != built.active) {
      active = fetch_with_retry(!first, built.active);
    }
    if (active == nullptr && dep.active != nullptr) {
      active = dep.active->snapshot();  // last-known-good
    }
    SEDSPEC_REQUIRE_MSG(!first || active != nullptr,
                        "no spec published for this shard's device type");
    if (active == nullptr) {
      return;  // fetch exhausted: unprotected until the next poll
    }
    spec::SnapshotRef cand;
    if (spec.shadow_candidate && config_.candidate_store != nullptr) {
      cand = config_.candidate_store->current(spec.device);
    }
    want.active = active->version;
    want.candidate = cand == nullptr ? 0 : cand->version;
    if (want == built) {
      return;
    }
    deploy(std::move(active), std::move(cand));
    if (!first && (built.active == 0 || want.policy != built.policy)) {
      ++result.policy_redeploys;
    }
    if (built.active != 0 && want.active != built.active) {
      ++result.redeploys;
      checker::Report r;
      r.kind = checker::Report::Kind::kRedeploy;
      r.shard = shard_id;
      r.value = want.active;
      queue.try_push(r);  // best-effort, counted by the queue either way
    }
    built = want;
  };

  reconcile(true);
  for (uint64_t i = 0; i < spec.ops; ++i) {
    if (spec.op_hook) {
      // Fault seam: a throwing hook models the shard crashing mid-window.
      spec.op_hook(i);
    }
    workload->common_operation(spec.mode, rng);
    ++result.ops;
    if (config_.spec_poll_ops == 0 || result.ops % config_.spec_poll_ops != 0) {
      continue;
    }
    // Poll-boundary seam, ahead of the reconcile: lets a fault injector
    // adjust the live checker at poll cadence even when nothing redeploys,
    // and a spec republished from it is deployed at this same boundary.
    if (spec.checker_hook && dep.active != nullptr) {
      spec.checker_hook(result.ops, *dep.active);
    }
    reconcile(false);
  }

  result.ended_protected = dep.active != nullptr;
  result.final_spec_version = built.active;
}

RunReport EnforcementService::run(const std::vector<ShardSpec>& shards) {
  // A flight ring is single-writer, so every shard needs its own.
  SEDSPEC_REQUIRE_MSG(
      config_.flight == nullptr || config_.flight->shards() >= shards.size(),
      "ServiceConfig::flight needs one ring per shard");
  RunReport report;
  report.shards.resize(shards.size());
  checker::ReportQueue queue(config_.report_queue_capacity);

  // Single consumer draining concurrently with the producers, so a burst
  // larger than the queue capacity is not automatically a loss.
  std::atomic<bool> producers_done{false};
  // Flight-recorder dumps run HERE, off the check path: the consumer maps
  // incident reports to bundle triggers as it drains (per-epoch dedup in
  // the recorder keeps violation storms from flooding bundles).
  obs::FlightRecorder* flight = config_.flight;
  auto flight_process = [&](size_t from) {
    if (flight == nullptr) {
      return;
    }
    for (size_t k = from; k < report.reports.size(); ++k) {
      const checker::Report& r = report.reports[k];
      obs::FlightTrigger trigger;
      switch (r.kind) {
        case checker::Report::Kind::kViolation:
          trigger = obs::FlightTrigger::kViolation;
          break;
        case checker::Report::Kind::kQuarantine:
          trigger = obs::FlightTrigger::kQuarantine;
          break;
        case checker::Report::Kind::kDegraded:
          // Degraded mode is entered via a contained internal fault —
          // watchdog trips included — so it maps to the watchdog trigger.
          trigger = obs::FlightTrigger::kWatchdog;
          break;
        default:
          continue;
      }
      flight->dump(trigger, r.shard, checker::report_kind_name(r.kind));
    }
  };
  std::thread consumer([&] {
    size_t flight_seen = 0;
    while (!producers_done.load(std::memory_order_acquire)) {
      if (queue.drain(report.reports) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      flight_process(flight_seen);
      flight_seen = report.reports.size();
    }
    queue.drain(report.reports);  // final sweep after the last producer
    flight_process(flight_seen);
  });

  std::vector<std::thread> threads;
  threads.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    threads.emplace_back([&, i] {
      ShardResult& result = report.shards[i];
      result.device = shards[i].device;
      result.shard = static_cast<uint32_t>(i);
      try {
        run_shard(shards[i], static_cast<uint32_t>(i), queue, result);
      } catch (const std::exception& e) {
        result.error = e.what();
      } catch (...) {
        result.error = "unknown shard failure";
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  producers_done.store(true, std::memory_order_release);
  consumer.join();

  for (const ShardResult& s : report.shards) {
    report.fleet.merge(s.stats);
    report.shadow_fleet.merge(s.shadow_stats);
    report.total_ops += s.ops;
    report.total_redeploys += s.redeploys;
    report.total_shadow_would_block += s.shadow_would_block;
  }
  report.reports_pushed = queue.pushed();
  report.reports_dropped = queue.dropped();
  return report;
}

}  // namespace sedspec::enforce
