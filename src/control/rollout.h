// Staged spec rollout: state machine, stage-observation verdicts, and the
// crash-consistent rollout record (fleet control plane).
//
// A candidate specification reaches the fleet in stages:
//
//       stage_candidate()        run stage 0..n-1          promote
//   ┌─────────┐   ok   ┌────────────┐  all stages ok  ┌───────────┐  ok
//   │ Staging ├───────►│ Shadow(N%) ├────────────────►│ Promoting ├──────► Active
//   └────┬────┘        └─────┬──────┘                 └─────┬─────┘
//        │ bad candidate     │ bad metrics / crash spike    │ bad confirm
//        ▼                   ▼                              ▼
//                        RolledBack  (baseline spec still enforcing)
//
// In Shadow, N% of shards evaluate the candidate ALONGSIDE the active spec
// (monitor-only: candidate verdicts are recorded, never block), and the
// engine watches the per-window observation — candidate-only violation
// delta, would-be-false-positive rate, check-latency ratio, shard
// crash/quarantine spikes from the PR-1 failure-domain counters, and
// report-queue loss. Promoting publishes the candidate to the active store
// and confirms on live traffic; a bad confirmation republishes the
// baseline (auto-rollback of an active spec).
//
// Crash consistency: every transition serializes a RolloutRecord behind
// the same magic/version/CRC envelope discipline as the spec artifacts.
// The record carries the serialized *baseline* spec (last-known-good), so
// a control plane restarted mid-Promoting can always restore enforcement
// to the baseline without any other state surviving the crash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "spec/serial.h"

namespace sedspec::control {

enum class RolloutState : uint8_t {
  kStaging = 0,
  kShadow = 1,
  kPromoting = 2,
  kActive = 3,
  kRolledBack = 4,
};
inline constexpr size_t kRolloutStateCount = 5;

[[nodiscard]] std::string rollout_state_name(RolloutState s);

/// Is the state machine finished? A rollout must always end here — a
/// non-terminal record found at restart means the control plane crashed
/// mid-rollout and recovery runs (see ControlPlane::resume).
[[nodiscard]] inline bool rollout_terminal(RolloutState s) {
  return s == RolloutState::kActive || s == RolloutState::kRolledBack;
}

/// Rollback / promotion guardrails for one observation window.
struct RolloutThresholds {
  /// Candidate-only would-be blocks (candidate flags a round the active
  /// spec passed — the false-positive signature) per shadow round.
  double max_would_block_rate = 0.0;
  /// Candidate violation surplus over the active spec, per shadow round.
  double max_violation_delta_rate = 0.0;
  /// Candidate mean check latency over active, and candidate p99 over
  /// active p99, both from the window's latency States. 0 disables the
  /// ratio checks (with timing sampling off the States are empty and the
  /// checks skip on their own).
  double max_latency_ratio = 4.0;
  /// Shard crashes tolerated inside one window (failure-domain feed).
  uint64_t max_shard_failures = 0;
  /// Quarantine (fail-closed containment) spike tolerated per window.
  uint64_t max_quarantines = 0;
  /// Report-queue drops tolerated per window (report loss blinds the
  /// monitors, so by default any loss pauses promotion via retry).
  uint64_t max_report_drops = 0;
  /// Observation completeness: fewer shadow rounds than this means the
  /// metric feed is delayed/stale — the stage is inconclusive and is
  /// retried, never promoted (and rolled back after max retries).
  uint64_t min_shadow_rounds = 1;
};

/// What one observation window saw, aggregated from the enforcement run's
/// ShardResults (see ControlPlane::run_rollout).
struct StageObservation {
  uint64_t shadow_shards = 0;
  uint64_t shadow_rounds = 0;          // candidate-checked rounds
  uint64_t candidate_violations = 0;   // all strategies, shadow checkers
  uint64_t active_violations = 0;      // same shards, active checkers
  uint64_t would_block = 0;            // candidate-only findings
  uint64_t candidate_blocked = 0;      // MUST stay 0 (shadow never blocks)
  uint64_t shard_failures = 0;         // crashed shard threads
  uint64_t quarantines = 0;            // fail-closed containments
  uint64_t contained_faults = 0;
  uint64_t report_drops = 0;
  /// This window's check latencies on the canary shards, merged from
  /// ShardResult::check_latency / shadow_check_latency (empty while timing
  /// sampling is off).
  obs::Histogram::State active_latency;
  obs::Histogram::State candidate_latency;
};

enum class StageVerdict : uint8_t {
  kPromote = 0,  // window clean: advance to the next stage
  kRetry = 1,    // window inconclusive (delayed/incomplete metrics)
  kRollback = 2, // guardrail tripped: abort to baseline
};

struct StageDecision {
  StageVerdict verdict = StageVerdict::kRollback;
  std::string reason;
};

/// Pure decision function: one observation window against the thresholds.
/// Deterministic and side-effect free so the fault campaign can sweep it.
[[nodiscard]] StageDecision evaluate_stage(const RolloutThresholds& t,
                                           const StageObservation& o);

/// Stage plan + guardrails for one rollout.
struct RolloutConfig {
  /// Fraction of shards shadowing the candidate per stage (last stage is
  /// typically 1.0). ceil(fraction * shard_count), at least one shard.
  std::vector<double> stage_fractions = {0.25, 1.0};
  /// Benign operations each shard drives per observation window.
  uint64_t observe_ops = 32;
  /// Inconclusive-window retries per stage before giving up (rollback).
  uint32_t max_stage_retries = 2;
  RolloutThresholds thresholds;
};

/// Persisted rollout state. Serialized behind a magic/version/CRC envelope
/// (same discipline as spec::serialize); load() rejects any corruption
/// with a structured LoadError — a control plane that cannot trust its
/// record falls back to baseline-only operation.
struct RolloutRecord {
  std::string device;
  uint64_t candidate_version = 0;  // candidate-store version under rollout
  uint64_t baseline_version = 0;   // active-store last-known-good version
  RolloutState state = RolloutState::kStaging;
  uint32_t stage_index = 0;
  std::string reason;  // rollback reason / promotion note
  /// Serialized last-known-good spec (own nested envelope): what recovery
  /// republishes if a crash interrupted Promoting.
  std::vector<uint8_t> baseline_spec;

  [[nodiscard]] std::vector<uint8_t> serialize() const;
  /// Validates the record envelope, every field range, and the nested
  /// baseline-spec envelope. Corrupt input yields an error, never throws.
  [[nodiscard]] static spec::LoadError load(std::span<const uint8_t> bytes,
                                            RolloutRecord& out);
};

/// Rollout-record envelope format version.
inline constexpr uint32_t kRolloutFormatVersion = 1;

}  // namespace sedspec::control
