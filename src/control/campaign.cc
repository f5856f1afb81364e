#include "control/campaign.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "control/control_plane.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "spec/serial.h"

namespace sedspec::control {

namespace {

using faultinject::ControlFaultKind;
using faultinject::SpecFaultKind;

/// Enforcement-liveness probe: the currently active spec, deployed fresh,
/// must still veto an access no training ever produced (conditional-jump
/// "untrained I/O access"). This is the difference between "the rollout
/// rolled back" and "the rollout rolled back AND the fleet is still
/// protected" — a fail-open escape fails here even if every state looks
/// right on paper.
bool enforcement_alive(spec::SpecStore& active, const std::string& device) {
  const spec::SnapshotRef snap = active.current(device);
  if (snap == nullptr) {
    return false;
  }
  std::unique_ptr<guest::DeviceWorkload> w = guest::make_workload(device);
  checker::EsChecker probe(snap, &w->device(), checker::CheckerConfig{});
  const sedspec::IoAccess untrained{sedspec::IoSpace::kPio, 0x51ED, 1, 0,
                                    true};
  const bool allowed = probe.before_access(w->device(), untrained);
  return !allowed && !probe.last_result().clean();
}

}  // namespace

std::string control_outcome_name(ControlOutcome o) {
  switch (o) {
    case ControlOutcome::kRejectedAtStaging:
      return "rejected-at-staging";
    case ControlOutcome::kRolledBack:
      return "rolled-back";
    case ControlOutcome::kRecovered:
      return "recovered";
    case ControlOutcome::kPromotedClean:
      return "promoted-clean";
    case ControlOutcome::kPromotedEquivalent:
      return "promoted-equivalent";
    case ControlOutcome::kEscaped:
      return "ESCAPED";
  }
  return "?";
}

std::string ControlCampaignResult::describe() const {
  std::ostringstream out;
  out << "control campaign: " << injected << " faults injected\n";
  out << "  by kind:";
  for (size_t i = 0; i < faultinject::kControlFaultKinds; ++i) {
    out << " " << faultinject::control_fault_name(
                      static_cast<ControlFaultKind>(i))
        << "=" << by_kind[i];
  }
  out << "\n  by outcome:";
  for (size_t i = 0; i < kControlOutcomeCount; ++i) {
    out << " " << control_outcome_name(static_cast<ControlOutcome>(i)) << "="
        << by_outcome[i];
  }
  out << "\n  staging rejections:";
  for (size_t i = 0; i < 8; ++i) {
    if (staging_rejections_by_status[i] != 0) {
      out << " " << spec::load_status_name(static_cast<spec::LoadStatus>(i))
          << "=" << staging_rejections_by_status[i];
    }
  }
  out << "\n  invariants: shadow_blocks=" << shadow_blocks
      << " stuck_rollouts=" << stuck_rollouts
      << " liveness_failures=" << liveness_failures
      << " baseline_divergence=" << baseline_divergence << "\n";
  return out.str();
}

ControlCampaignResult run_control_campaign(
    const ControlCampaignConfig& config) {
  ControlCampaignResult res;
  Rng rng(config.seed);

  // Phase 1+2 once: the baseline ES-CFG every per-fault store starts from,
  // and the byte image a good candidate (and every rollback check) uses.
  std::unique_ptr<guest::DeviceWorkload> trainer =
      guest::make_workload(config.device);
  const spec::EsCfg base_cfg =
      pipeline::build_spec(trainer->device(), [&] { trainer->training(); });
  const std::vector<uint8_t> baseline_bytes = spec::serialize(base_cfg);

  std::vector<enforce::ShardSpec> fleet(config.shards);
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].device = config.device;
    fleet[i].seed = config.seed * 977 + i;
  }

  RolloutConfig rcfg;
  rcfg.stage_fractions = {0.5, 1.0};
  rcfg.observe_ops = config.observe_ops;
  rcfg.max_stage_retries = 2;

  auto run_fault = [&](ControlFaultKind kind) {
    ++res.injected;
    ++res.by_kind[static_cast<size_t>(kind)];

    spec::SpecStore active;
    active.publish(spec::EsCfg(base_cfg));

    enforce::ServiceConfig svc;
    svc.spec_poll_ops = config.spec_poll_ops;
    svc.redeploy_backoff_base_us = 5;  // keep 1000 faults fast
    svc.redeploy_backoff_max_us = 50;

    if (kind == ControlFaultKind::kFetchOutage) {
      svc.spec_fetch = [](const std::string&, spec::SnapshotRef&) {
        spec::LoadError e;
        e.status = spec::LoadStatus::kCrcMismatch;
        e.detail = "distribution channel down (injected)";
        return e;
      };
    }
    if (kind == ControlFaultKind::kFetchTransient) {
      // A handful of failures, never more than one shard could absorb on
      // its own — bounded retry must ride through without a rollback.
      auto budget = std::make_shared<std::atomic<int64_t>>(
          1 + static_cast<int64_t>(rng.below(enforce::kRedeployMaxRetries)));
      spec::SpecStore* store = &active;
      svc.spec_fetch = [budget, store](const std::string& device,
                                       spec::SnapshotRef& out) {
        if (budget->fetch_sub(1, std::memory_order_relaxed) > 0) {
          spec::LoadError e;
          e.status = spec::LoadStatus::kCrcMismatch;
          e.detail = "transient distribution glitch (injected)";
          return e;
        }
        out = store->current(device);
        spec::LoadError ok;
        return ok;
      };
    }

    ControlPlane cp(&active, svc);

    std::vector<enforce::ShardSpec> run_fleet = fleet;
    if (kind == ControlFaultKind::kShardCrash) {
      const size_t victim = rng.below(run_fleet.size());
      const uint64_t crash_at = rng.below(config.observe_ops);
      run_fleet[victim].op_hook = [crash_at](uint64_t op) {
        if (op == crash_at) {
          throw std::runtime_error("injected shard crash");
        }
      };
    }

    uint64_t delay_budget = 0;
    auto delayed = std::make_shared<uint64_t>(0);
    if (kind == ControlFaultKind::kMetricDelay) {
      delay_budget = 1 + rng.below(4);  // 1..4 windows starved
      cp.observe_filter = [delayed, delay_budget](StageObservation& o) {
        if (*delayed < delay_budget) {
          ++*delayed;
          o.shadow_rounds = 0;  // the feed has not arrived yet
        }
      };
    }

    ControlOutcome outcome = ControlOutcome::kEscaped;
    // Most endings must leave the baseline spec (byte-identical) active;
    // a proven-equivalent garbled promotion is the one exception.
    bool expect_baseline_active = true;

    bool staged_ok = true;
    if (kind == ControlFaultKind::kCorruptCandidate) {
      std::vector<uint8_t> bytes = baseline_bytes;
      const auto sfk = static_cast<SpecFaultKind>(
          rng.below(faultinject::kSpecFaultKinds));
      faultinject::corrupt_spec(bytes, sfk, rng);
      const spec::LoadError err = cp.stage_candidate_serialized(bytes);
      if (!err.ok()) {
        ++res.staging_rejections_by_status[static_cast<size_t>(err.status)];
        outcome = ControlOutcome::kRejectedAtStaging;
        staged_ok = false;
      }
      // else: the corruption survived the envelope (resealed garble) —
      // the rollout itself must catch or prove it equivalent.
    } else {
      cp.stage_candidate(spec::EsCfg(base_cfg));
    }

    if (staged_ok) {
      const RolloutOutcome ro = cp.run_rollout(config.device, run_fleet, rcfg);
      for (const WindowRecord& w : ro.windows) {
        res.shadow_blocks += w.observation.candidate_blocked;
      }
      if (!rollout_terminal(ro.record.state)) {
        ++res.stuck_rollouts;
      }
      const bool promoted = ro.promoted();
      switch (kind) {
        case ControlFaultKind::kCorruptCandidate:
          // A staged-through candidate either trips a guardrail or proves
          // byte-for-byte-equivalent behavior across every window.
          outcome = promoted ? ControlOutcome::kPromotedEquivalent
                             : ControlOutcome::kRolledBack;
          expect_baseline_active = !promoted;
          break;
        case ControlFaultKind::kFetchOutage:
        case ControlFaultKind::kShardCrash:
          outcome = promoted ? ControlOutcome::kEscaped
                             : ControlOutcome::kRolledBack;
          break;
        case ControlFaultKind::kFetchTransient:
          outcome = promoted ? ControlOutcome::kPromotedClean
                             : ControlOutcome::kEscaped;
          break;
        case ControlFaultKind::kMetricDelay: {
          const bool should_promote = delay_budget <= rcfg.max_stage_retries;
          outcome = promoted == should_promote
                        ? (promoted ? ControlOutcome::kPromotedClean
                                    : ControlOutcome::kRolledBack)
                        : ControlOutcome::kEscaped;
          break;
        }
        case ControlFaultKind::kRecordCorrupt: {
          if (!promoted) {
            outcome = ControlOutcome::kEscaped;  // fault-free run must pass
            break;
          }
          // Damage a random persisted record and crash-restart on it.
          std::vector<uint8_t> rec = cp.journal()[rng.below(
              cp.journal().size())];
          faultinject::corrupt_spec(
              rec,
              static_cast<SpecFaultKind>(
                  rng.below(faultinject::kSpecFaultKinds)),
              rng);
          const ResumeResult rr = cp.resume(rec);
          if (rr.load_error.ok() && !rollout_terminal(rr.record.state)) {
            ++res.stuck_rollouts;
            outcome = ControlOutcome::kEscaped;
          } else {
            outcome = ControlOutcome::kRecovered;
          }
          break;
        }
        case ControlFaultKind::kCrashPromoting: {
          if (!promoted) {
            outcome = ControlOutcome::kEscaped;
            break;
          }
          // Replay the journal exactly as a restarted control plane would
          // find it after dying between Promoting and the terminal write.
          std::vector<uint8_t> promoting_rec;
          for (const std::vector<uint8_t>& entry : cp.journal()) {
            RolloutRecord r;
            if (RolloutRecord::load(entry, r).ok() &&
                r.state == RolloutState::kPromoting) {
              promoting_rec = entry;
            }
          }
          const ResumeResult rr = cp.resume(promoting_rec);
          outcome = rr.load_error.ok() && rr.republished_baseline &&
                            rr.record.state == RolloutState::kRolledBack
                        ? ControlOutcome::kRecovered
                        : ControlOutcome::kEscaped;
          break;
        }
      }
    }

    if (expect_baseline_active) {
      const spec::SnapshotRef snap = active.current(config.device);
      if (snap == nullptr || spec::serialize(snap->cfg) != baseline_bytes) {
        ++res.baseline_divergence;
      }
    }
    if (!enforcement_alive(active, config.device)) {
      ++res.liveness_failures;
    }
    ++res.by_outcome[static_cast<size_t>(outcome)];
  };

  // Corruption family: candidate images, the distribution channel, and the
  // persisted record.
  for (size_t i = 0; i < config.corruption_faults; ++i) {
    switch (i % 4) {
      case 0:
      case 1:
        run_fault(ControlFaultKind::kCorruptCandidate);
        break;
      case 2:
        run_fault(ControlFaultKind::kFetchOutage);
        break;
      default:
        run_fault(ControlFaultKind::kRecordCorrupt);
        break;
    }
  }
  // Crash family: shard threads mid-window and the control plane itself
  // mid-promotion.
  for (size_t i = 0; i < config.crash_faults; ++i) {
    run_fault(i % 3 < 2 ? ControlFaultKind::kShardCrash
                        : ControlFaultKind::kCrashPromoting);
  }
  // Delay family: starved metric feeds and transient fetch glitches.
  for (size_t i = 0; i < config.delay_faults; ++i) {
    run_fault(i % 3 < 2 ? ControlFaultKind::kMetricDelay
                        : ControlFaultKind::kFetchTransient);
  }
  return res;
}

}  // namespace sedspec::control
