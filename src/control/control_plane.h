// ControlPlane — canaried spec rollout for an enforcement fleet.
//
// Drives the state machine in rollout.h against a live shard fleet: stage a
// candidate ES-CFG, shadow it on a growing fraction of shards (candidate
// verdicts recorded, never blocking), watch the per-window observability
// feed, and either promote the candidate into the active SpecStore or roll
// back with the baseline still enforcing. Every transition persists a
// CRC-enveloped RolloutRecord carrying the serialized baseline spec, so a
// control plane restarted mid-rollout can always restore enforcement to
// the last-known-good spec (resume()).
//
// Fault seams (used by the control-plane campaign, campaign.h):
//   - ServiceConfig::spec_fetch   — corrupt/fail spec distribution
//   - ShardSpec::op_hook          — crash shards mid-window
//   - observe_filter              — delay/blind the metric feed
// Persisted rollout records need no seam: the campaign damages a copy of
// a journal() entry and resume()s from it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "control/rollout.h"
#include "sedspec/enforcement.h"
#include "spec/spec_store.h"

namespace sedspec::control {

/// One observation window as the engine ran it (audit trail).
struct WindowRecord {
  RolloutState state = RolloutState::kShadow;  // kShadow or kPromoting
  uint32_t stage = 0;
  uint32_t attempt = 0;
  StageObservation observation;
  StageDecision decision;
};

struct RolloutOutcome {
  RolloutRecord record;      // terminal state (Active or RolledBack)
  std::vector<WindowRecord> windows;
  uint64_t total_ops = 0;    // guest operations driven across all windows

  [[nodiscard]] bool promoted() const {
    return record.state == RolloutState::kActive;
  }
};

/// What resume() did with a persisted record after a (simulated) crash.
struct ResumeResult {
  spec::LoadError load_error;  // !ok(): record rejected, baseline kept
  RolloutRecord record;        // repaired terminal record (when loadable)
  bool republished_baseline = false;  // crash interrupted Promoting
  std::string action;          // human-readable recovery summary
};

class ControlPlane {
 public:
  /// `active` is the fleet's live SpecStore (must outlive the plane). The
  /// candidate store is owned here: staged candidates are invisible to
  /// non-canary shards until Promoting publishes into `active`.
  explicit ControlPlane(spec::SpecStore* active,
                        enforce::ServiceConfig service = {});

  /// Stages a candidate spec for its device. Any previously staged
  /// candidate for the same device is superseded (store republish).
  spec::SnapshotRef stage_candidate(spec::EsCfg cfg);

  /// Stages a serialized candidate, validating the full envelope first —
  /// a corrupt candidate dies here (LoadError) and never reaches a shard.
  [[nodiscard]] spec::LoadError stage_candidate_serialized(
      std::span<const uint8_t> bytes);

  /// Runs the staged rollout for `device` over the given fleet. Shards
  /// whose .device matches are canary-eligible; the engine flips their
  /// shadow_candidate flag per stage (ceil(fraction * eligible), >= 1).
  /// Other shards run alongside untouched (mixed-fleet realism) but their
  /// crashes/quarantines still feed the failure-domain guardrails.
  [[nodiscard]] RolloutOutcome run_rollout(
      const std::string& device, std::vector<enforce::ShardSpec> fleet,
      const RolloutConfig& cfg);

  /// Crash recovery over a persisted record:
  ///   - unloadable record        → LoadError; baseline keeps enforcing
  ///   - terminal (Active/RolledBack) → no-op
  ///   - Staging/Shadow           → abort to RolledBack (active store was
  ///                                never touched, nothing to restore)
  ///   - Promoting                → republish the embedded baseline spec,
  ///                                then RolledBack
  [[nodiscard]] ResumeResult resume(std::span<const uint8_t> record_bytes);

  [[nodiscard]] spec::SpecStore& candidate_store() { return candidate_; }
  [[nodiscard]] const enforce::ServiceConfig& service_config() const {
    return service_;
  }

  /// Every serialized RolloutRecord in persistence order — the journal a
  /// crash test replays from (last entry = what survived the crash).
  [[nodiscard]] const std::vector<std::vector<uint8_t>>& journal() const {
    return journal_;
  }

  /// Fault seam: rewrites an assembled StageObservation before the verdict
  /// (models a delayed or lossy metric feed).
  std::function<void(StageObservation&)> observe_filter;

 private:
  void persist(const RolloutRecord& rec);

  spec::SpecStore* active_;
  spec::SpecStore candidate_;
  enforce::ServiceConfig service_;
  std::vector<std::vector<uint8_t>> journal_;
};

}  // namespace sedspec::control
