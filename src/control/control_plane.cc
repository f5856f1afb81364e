#include "control/control_plane.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "spec/serial.h"

namespace sedspec::control {

namespace {

uint64_t total_violations(const checker::CheckerStats& s) {
  return s.violations_by_strategy[0] + s.violations_by_strategy[1] +
         s.violations_by_strategy[2];
}

/// Confirmation window: the candidate IS active now, so its evidence is
/// the live fleet's — benign traffic blocked maps onto the would-block
/// guardrail (those ARE false positives, no longer hypothetical), and any
/// violation on benign traffic is candidate surplus over a zero baseline.
StageObservation confirm_observation(const std::vector<bool>& is_canary,
                                     const enforce::RunReport& report) {
  StageObservation o;
  for (size_t i = 0; i < report.shards.size(); ++i) {
    const enforce::ShardResult& s = report.shards[i];
    if (!s.ok()) {
      ++o.shard_failures;
    }
    o.quarantines += s.stats.quarantines;
    o.contained_faults += s.stats.contained_faults;
    if (i < is_canary.size() && is_canary[i]) {
      ++o.shadow_shards;
      o.shadow_rounds += s.stats.rounds;
      o.candidate_violations += total_violations(s.stats);
      o.would_block += s.stats.blocked;
    }
  }
  o.report_drops = report.reports_dropped;
  return o;
}

/// Shadow window: each canary's candidate against its active checker,
/// latency included (a ShardResult carries its shard's own latency
/// windows for the run).
StageObservation shadow_observation(const std::vector<bool>& is_canary,
                                    const enforce::RunReport& report) {
  StageObservation o;
  for (size_t i = 0; i < report.shards.size(); ++i) {
    const enforce::ShardResult& s = report.shards[i];
    // Failure-domain feed is fleet-wide: a crash or quarantine spike
    // anywhere in the window is evidence against the rollout.
    if (!s.ok()) {
      ++o.shard_failures;
    }
    o.quarantines += s.stats.quarantines;
    o.contained_faults += s.stats.contained_faults + s.shadow_stats.contained_faults;
    if (i >= is_canary.size() || !is_canary[i]) {
      continue;
    }
    ++o.shadow_shards;
    o.shadow_rounds += s.shadow_stats.rounds;
    o.candidate_violations += total_violations(s.shadow_stats);
    o.active_violations += total_violations(s.stats);
    o.would_block += s.shadow_would_block;
    o.candidate_blocked += s.shadow_stats.blocked;
    o.active_latency.merge(s.check_latency);
    o.candidate_latency.merge(s.shadow_check_latency);
  }
  o.report_drops = report.reports_dropped;
  return o;
}

}  // namespace

ControlPlane::ControlPlane(spec::SpecStore* active,
                           enforce::ServiceConfig service)
    : active_(active), service_(std::move(service)) {
  SEDSPEC_REQUIRE(active != nullptr);
}

spec::SnapshotRef ControlPlane::stage_candidate(spec::EsCfg cfg) {
  return candidate_.publish(std::move(cfg));
}

spec::LoadError ControlPlane::stage_candidate_serialized(
    std::span<const uint8_t> bytes) {
  spec::LoadResult result = spec::load(bytes);
  if (!result.ok()) {
    return result.error;
  }
  candidate_.publish(std::move(*result.cfg));
  return {};
}

void ControlPlane::persist(const RolloutRecord& rec) {
  journal_.push_back(rec.serialize());
}

RolloutOutcome ControlPlane::run_rollout(
    const std::string& device, std::vector<enforce::ShardSpec> fleet,
    const RolloutConfig& cfg) {
  RolloutOutcome out;
  RolloutRecord& rec = out.record;
  rec.device = device;

  auto rolled_back = [&](std::string reason) {
    rec.state = RolloutState::kRolledBack;
    rec.reason = std::move(reason);
    persist(rec);
    log_warn("control") << "rollout '" << device << "' rolled back: "
                        << rec.reason;
    return std::move(out);
  };

  const spec::SnapshotRef baseline = active_->current(device);
  SEDSPEC_REQUIRE_MSG(baseline != nullptr,
                      "rollout needs an active baseline spec");
  rec.baseline_version = baseline->version;
  rec.baseline_spec = spec::serialize(baseline->cfg);
  rec.state = RolloutState::kStaging;
  persist(rec);

  const spec::SnapshotRef cand = candidate_.current(device);
  if (cand == nullptr) {
    return rolled_back("no candidate staged for '" + device + "'");
  }
  rec.candidate_version = cand->version;

  std::vector<size_t> eligible;
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].device == device) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) {
    return rolled_back("no shard in the fleet runs '" + device + "'");
  }

  enforce::ServiceConfig svc = service_;
  svc.candidate_store = &candidate_;

  // One observation window: copy the fleet, flip the canary flags, run,
  // assemble + filter the observation, and record the verdict.
  auto run_window = [&](const std::vector<bool>& canary, RolloutState state,
                        uint32_t stage, uint32_t attempt) {
    std::vector<enforce::ShardSpec> shards = fleet;
    for (size_t i = 0; i < shards.size(); ++i) {
      shards[i].ops = cfg.observe_ops;
      shards[i].shadow_candidate =
          state == RolloutState::kShadow && i < canary.size() && canary[i];
    }
    enforce::EnforcementService service(active_, svc);
    const enforce::RunReport report = service.run(shards);
    out.total_ops += report.total_ops;
    WindowRecord w;
    w.state = state;
    w.stage = stage;
    w.attempt = attempt;
    w.observation = state == RolloutState::kShadow
                        ? shadow_observation(canary, report)
                        : confirm_observation(canary, report);
    if (observe_filter) {
      observe_filter(w.observation);
    }
    w.decision = evaluate_stage(cfg.thresholds, w.observation);
    out.windows.push_back(w);
    return w;
  };

  SEDSPEC_REQUIRE_MSG(!cfg.stage_fractions.empty(),
                      "rollout needs at least one stage");
  for (uint32_t stage = 0; stage < cfg.stage_fractions.size(); ++stage) {
    const double fraction = cfg.stage_fractions[stage];
    const size_t canaries = std::min(
        eligible.size(),
        std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                fraction *
                                static_cast<double>(eligible.size())))));
    std::vector<bool> canary(fleet.size(), false);
    for (size_t k = 0; k < canaries; ++k) {
      canary[eligible[k]] = true;
    }
    rec.state = RolloutState::kShadow;
    rec.stage_index = stage;
    persist(rec);
    log_info("control") << "rollout '" << device << "' v"
                        << rec.candidate_version << " stage " << stage
                        << ": shadowing on " << canaries << "/"
                        << eligible.size() << " shards";

    bool advanced = false;
    for (uint32_t attempt = 0; attempt <= cfg.max_stage_retries; ++attempt) {
      const WindowRecord w =
          run_window(canary, RolloutState::kShadow, stage, attempt);
      if (w.decision.verdict == StageVerdict::kPromote) {
        advanced = true;
        break;
      }
      if (w.decision.verdict == StageVerdict::kRollback) {
        return rolled_back(w.decision.reason);
      }
      // kRetry: window inconclusive, run it again.
    }
    if (!advanced) {
      return rolled_back("stage " + std::to_string(stage) +
                         " still inconclusive after " +
                         std::to_string(cfg.max_stage_retries + 1) +
                         " windows: " + out.windows.back().decision.reason);
    }
  }

  // Every shadow stage passed: make the candidate the active spec. The
  // Promoting record is persisted BEFORE the publish so a crash between
  // the two is recoverable (resume republishes the embedded baseline).
  rec.state = RolloutState::kPromoting;
  rec.stage_index = static_cast<uint32_t>(cfg.stage_fractions.size());
  persist(rec);
  active_->publish(spec::EsCfg(cand->cfg));

  // Confirmation on live traffic: the candidate is active now, and a
  // dirty window rolls it back.
  std::vector<bool> canary(fleet.size(), false);
  for (const size_t i : eligible) {
    canary[i] = true;
  }
  WindowRecord confirm;
  for (uint32_t attempt = 0;; ++attempt) {
    confirm = run_window(canary, RolloutState::kPromoting, rec.stage_index,
                         attempt);
    if (confirm.decision.verdict != StageVerdict::kRetry ||
        attempt >= cfg.max_stage_retries) {
      break;
    }
  }
  if (confirm.decision.verdict != StageVerdict::kPromote) {
    // Auto-rollback of a just-promoted spec: republish the baseline the
    // record carries, exactly what crash recovery would do.
    spec::LoadResult lr = spec::load(rec.baseline_spec);
    SEDSPEC_REQUIRE_MSG(lr.ok(), "baseline spec must reload");
    active_->publish(std::move(*lr.cfg));
    return rolled_back("confirmation failed: " + confirm.decision.reason);
  }

  rec.state = RolloutState::kActive;
  rec.reason = "promoted after " + std::to_string(out.windows.size()) +
               " clean window(s)";
  persist(rec);
  log_info("control") << "rollout '" << device << "' promoted to v"
                      << active_->version_of(device);
  return out;
}

ResumeResult ControlPlane::resume(std::span<const uint8_t> record_bytes) {
  ResumeResult r;
  r.load_error = RolloutRecord::load(record_bytes, r.record);
  if (!r.load_error.ok()) {
    // An unreadable record gets no trust at all: whatever the crashed
    // rollout was doing, the active store still holds a published spec, so
    // baseline-only operation is the safe floor.
    r.action = "rollout record rejected (" + r.load_error.describe() +
               "); continuing on the active store as-is";
    return r;
  }
  if (rollout_terminal(r.record.state)) {
    r.action = "record is terminal (" + rollout_state_name(r.record.state) +
               "); nothing to recover";
    return r;
  }
  const std::string crashed_in = rollout_state_name(r.record.state);
  if (r.record.state == RolloutState::kPromoting) {
    // The crash may have landed before or after the candidate publish;
    // republishing the embedded baseline is idempotent-safe either way.
    spec::LoadResult lr = spec::load(r.record.baseline_spec);
    if (lr.ok()) {
      active_->publish(std::move(*lr.cfg));
      r.republished_baseline = true;
    }
  }
  r.record.state = RolloutState::kRolledBack;
  r.record.reason = "aborted by crash recovery (crashed in " + crashed_in +
                    (r.republished_baseline ? "; baseline republished)"
                                            : ")");
  persist(r.record);
  r.action = r.record.reason;
  return r;
}

}  // namespace sedspec::control
