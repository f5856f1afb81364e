#include "control/rollout.h"

#include <sstream>

#include "common/bytes.h"

namespace sedspec::control {

namespace {

constexpr uint32_t kRolloutMagic = 0x4f4c5253u;  // "SRLO"

spec::LoadError fail(spec::LoadStatus status, std::string detail) {
  spec::LoadError e;
  e.status = status;
  e.detail = std::move(detail);
  return e;
}

}  // namespace

std::string rollout_state_name(RolloutState s) {
  switch (s) {
    case RolloutState::kStaging:
      return "Staging";
    case RolloutState::kShadow:
      return "Shadow";
    case RolloutState::kPromoting:
      return "Promoting";
    case RolloutState::kActive:
      return "Active";
    case RolloutState::kRolledBack:
      return "RolledBack";
  }
  return "?";
}

StageDecision evaluate_stage(const RolloutThresholds& t,
                             const StageObservation& o) {
  StageDecision d;
  auto rollback = [&d](std::string reason) {
    d.verdict = StageVerdict::kRollback;
    d.reason = std::move(reason);
    return d;
  };

  // Hard safety invariant first: a shadow candidate that blocked anything
  // is a broken shadow harness, not a bad spec — never promote, never
  // retry.
  if (o.candidate_blocked > 0) {
    return rollback("shadow candidate blocked " +
                    std::to_string(o.candidate_blocked) +
                    " accesses (shadow-mode invariant violated)");
  }
  // Failure-domain feed: shard crashes and quarantine spikes roll back
  // regardless of what the candidate metrics look like — the window is
  // evidence the rollout destabilized enforcement.
  if (o.shard_failures > t.max_shard_failures) {
    return rollback(std::to_string(o.shard_failures) +
                    " shard crash(es) inside the observation window");
  }
  if (o.quarantines > t.max_quarantines) {
    return rollback("quarantine spike: " + std::to_string(o.quarantines) +
                    " fail-closed containments in the window");
  }
  if (o.report_drops > t.max_report_drops) {
    return rollback("report loss: " + std::to_string(o.report_drops) +
                    " reports dropped (monitoring blinded)");
  }
  // Delayed / incomplete metric feed: not enough shadow evidence to judge
  // the candidate. Inconclusive — retry the window, never promote blind.
  if (o.shadow_rounds < t.min_shadow_rounds) {
    d.verdict = StageVerdict::kRetry;
    std::ostringstream r;
    r << "observation incomplete: " << o.shadow_rounds << "/"
      << t.min_shadow_rounds << " shadow rounds (metric feed delayed?)";
    d.reason = r.str();
    return d;
  }

  const double rounds = static_cast<double>(o.shadow_rounds);
  const double would_block_rate = static_cast<double>(o.would_block) / rounds;
  if (would_block_rate > t.max_would_block_rate) {
    std::ostringstream r;
    r << "would-be false positives: " << o.would_block << "/"
      << o.shadow_rounds << " shadow rounds (rate " << would_block_rate
      << " > " << t.max_would_block_rate << ")";
    return rollback(r.str());
  }
  const uint64_t surplus = o.candidate_violations > o.active_violations
                               ? o.candidate_violations - o.active_violations
                               : 0;
  if (static_cast<double>(surplus) / rounds > t.max_violation_delta_rate) {
    std::ostringstream r;
    r << "candidate violation surplus: +" << surplus << " over "
      << o.shadow_rounds << " rounds";
    return rollback(r.str());
  }
  if (t.max_latency_ratio > 0 && o.active_latency.count > 0 &&
      o.candidate_latency.count > 0) {
    // Mean and p99 check latency, candidate over active; either ratio
    // tripping rolls back. Skipped when a side has no samples (sampling
    // off).
    auto mean = [](const obs::Histogram::State& h) {
      return static_cast<double>(h.sum) / static_cast<double>(h.count);
    };
    const double active_mean = mean(o.active_latency);
    const double cand_mean = mean(o.candidate_latency);
    if (active_mean > 0 && cand_mean / active_mean > t.max_latency_ratio) {
      std::ostringstream r;
      r << "candidate check latency " << cand_mean << " ns/round vs active "
        << active_mean << " (ratio cap " << t.max_latency_ratio << ")";
      return rollback(r.str());
    }
    const uint64_t active_p99 = o.active_latency.quantile(0.99);
    const uint64_t cand_p99 = o.candidate_latency.quantile(0.99);
    if (active_p99 > 0 &&
        static_cast<double>(cand_p99) / static_cast<double>(active_p99) >
            t.max_latency_ratio) {
      std::ostringstream r;
      r << "candidate p99 " << cand_p99 << " ns vs active " << active_p99
        << " (ratio cap " << t.max_latency_ratio << ")";
      return rollback(r.str());
    }
  }

  d.verdict = StageVerdict::kPromote;
  d.reason = "window clean";
  return d;
}

std::vector<uint8_t> RolloutRecord::serialize() const {
  return spec::seal_envelope(
      kRolloutMagic, kRolloutFormatVersion, [&](sedspec::ByteWriter& w) {
        w.str(device);
        w.u64(candidate_version);
        w.u64(baseline_version);
        w.u8(static_cast<uint8_t>(state));
        w.u32(stage_index);
        w.str(reason);
        w.varbytes(baseline_spec);
      });
}

spec::LoadError RolloutRecord::load(std::span<const uint8_t> bytes,
                                    RolloutRecord& out) {
  std::span<const uint8_t> payload;
  if (spec::LoadError e =
          spec::open_envelope(bytes, kRolloutMagic, kRolloutFormatVersion,
                              "rollout record", payload);
      !e.ok()) {
    return e;
  }

  RolloutRecord rec;
  try {
    sedspec::ByteReader r(payload);
    rec.device = r.str();
    rec.candidate_version = r.u64();
    rec.baseline_version = r.u64();
    const uint8_t state = r.u8();
    if (state >= kRolloutStateCount) {
      return fail(spec::LoadStatus::kMalformed,
                  "rollout state tag " + std::to_string(state) +
                      " out of range");
    }
    rec.state = static_cast<RolloutState>(state);
    rec.stage_index = r.u32();
    rec.reason = r.str();
    rec.baseline_spec = r.varbytes();
    if (r.remaining() != 0) {
      return fail(spec::LoadStatus::kMalformed,
                  std::to_string(r.remaining()) +
                      " trailing bytes after the rollout record");
    }
  } catch (const sedspec::DecodeError& e) {
    return fail(spec::LoadStatus::kMalformed, e.what());
  }

  // The nested baseline spec is the recovery artifact — if IT is corrupt,
  // the record is useless for safe resume and must be rejected whole.
  if (!rec.baseline_spec.empty()) {
    spec::LoadResult nested = spec::load(rec.baseline_spec);
    if (!nested.ok()) {
      spec::LoadError e = nested.error;
      e.detail = "nested baseline spec: " + e.detail;
      return e;
    }
    if (nested.cfg->device_name != rec.device) {
      return fail(spec::LoadStatus::kDeviceMismatch,
                  "rollout record for '" + rec.device +
                      "' carries a baseline spec for '" +
                      nested.cfg->device_name + "'");
    }
  }

  out = std::move(rec);
  spec::LoadError ok;
  return ok;
}

}  // namespace sedspec::control
