// Rollout state machine primitives (control/rollout.h): the pure stage
// verdict function and the crash-consistent RolloutRecord envelope,
// including exhaustive bit-flip fuzz of the persisted artifact.
#include <gtest/gtest.h>

#include "control/rollout.h"
#include "guest/workload.h"
#include "obs/metrics.h"
#include "sedspec/pipeline.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

using control::evaluate_stage;
using control::RolloutRecord;
using control::RolloutState;
using control::RolloutThresholds;
using control::StageObservation;
using control::StageVerdict;

StageObservation clean_window() {
  StageObservation o;
  o.shadow_shards = 2;
  o.shadow_rounds = 64;
  return o;
}

/// A latency window holding `count` samples of `value` ns per entry.
obs::Histogram::State latency(
    std::initializer_list<std::pair<uint64_t, uint64_t>> value_counts) {
  obs::Histogram h;
  for (const auto& [value, count] : value_counts) {
    for (uint64_t i = 0; i < count; ++i) {
      h.record(value);
    }
  }
  return h.state();
}

TEST(EvaluateStage, CleanWindowPromotes) {
  const auto d = evaluate_stage(RolloutThresholds{}, clean_window());
  EXPECT_EQ(d.verdict, StageVerdict::kPromote);
}

TEST(EvaluateStage, ShadowBlockIsAnUnconditionalRollback) {
  StageObservation o = clean_window();
  o.candidate_blocked = 1;
  const auto d = evaluate_stage(RolloutThresholds{}, o);
  EXPECT_EQ(d.verdict, StageVerdict::kRollback);
  EXPECT_NE(d.reason.find("shadow"), std::string::npos);
}

TEST(EvaluateStage, FailureDomainSpikesRollBack) {
  for (auto mutate : {+[](StageObservation& o) { o.shard_failures = 1; },
                      +[](StageObservation& o) { o.quarantines = 1; },
                      +[](StageObservation& o) { o.report_drops = 3; }}) {
    StageObservation o = clean_window();
    mutate(o);
    EXPECT_EQ(evaluate_stage(RolloutThresholds{}, o).verdict,
              StageVerdict::kRollback);
  }
}

TEST(EvaluateStage, IncompleteObservationRetriesNeverPromotes) {
  RolloutThresholds t;
  t.min_shadow_rounds = 32;
  StageObservation o = clean_window();
  o.shadow_rounds = 7;  // metric feed delayed
  const auto d = evaluate_stage(t, o);
  EXPECT_EQ(d.verdict, StageVerdict::kRetry);
}

TEST(EvaluateStage, WouldBlockAndViolationSurplusRollBack) {
  StageObservation o = clean_window();
  o.would_block = 1;
  EXPECT_EQ(evaluate_stage(RolloutThresholds{}, o).verdict,
            StageVerdict::kRollback);

  o = clean_window();
  o.candidate_violations = 3;
  o.active_violations = 1;  // surplus of 2 over a zero-rate threshold
  EXPECT_EQ(evaluate_stage(RolloutThresholds{}, o).verdict,
            StageVerdict::kRollback);

  // Candidate matching the active spec's violations is not a surplus.
  o = clean_window();
  o.candidate_violations = 2;
  o.active_violations = 2;
  EXPECT_EQ(evaluate_stage(RolloutThresholds{}, o).verdict,
            StageVerdict::kPromote);
}

TEST(EvaluateStage, LatencyRatioTripsAndSamplingOffSkips) {
  RolloutThresholds t;
  t.max_latency_ratio = 2.0;

  // Only the mean trips: two 100 us outliers in 200 rounds put the
  // candidate's mean at ~11x the active one, but its p99 stays at 127 ns.
  StageObservation o = clean_window();
  o.active_latency = latency({{100, 200}});
  o.candidate_latency = latency({{100, 198}, {100'000, 2}});
  ASSERT_LE(o.candidate_latency.quantile(0.99),
            2 * o.active_latency.quantile(0.99));
  auto d = evaluate_stage(t, o);
  EXPECT_EQ(d.verdict, StageVerdict::kRollback);
  EXPECT_NE(d.reason.find("ns/round"), std::string::npos) << d.reason;

  // Only the p99 trips: the candidate is cheaper on average, but its tail
  // is 4.5x the active one's.
  o = clean_window();
  o.active_latency = latency({{200, 200}});
  o.candidate_latency = latency({{50, 190}, {900, 10}});
  ASSERT_LT(o.candidate_latency.sum, o.active_latency.sum);
  d = evaluate_stage(t, o);
  EXPECT_EQ(d.verdict, StageVerdict::kRollback);
  EXPECT_NE(d.reason.find("p99 900"), std::string::npos) << d.reason;

  // Timing sampling off: both windows empty — no verdict from the ratio
  // checks.
  EXPECT_EQ(evaluate_stage(t, clean_window()).verdict,
            StageVerdict::kPromote);
}

class RolloutRecordSuite : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = guest::make_workload("fdc");
    const spec::EsCfg cfg =
        pipeline::build_spec(w->device(), [&] { w->training(); });
    record_.device = "fdc";
    record_.candidate_version = 7;
    record_.baseline_version = 3;
    record_.state = RolloutState::kPromoting;
    record_.stage_index = 2;
    record_.reason = "all stages clean";
    record_.baseline_spec = spec::serialize(cfg);
    bytes_ = record_.serialize();
  }

  RolloutRecord record_;
  std::vector<uint8_t> bytes_;
};

TEST_F(RolloutRecordSuite, RoundTripPreservesEveryField) {
  RolloutRecord out;
  ASSERT_TRUE(RolloutRecord::load(bytes_, out).ok());
  EXPECT_EQ(out.device, record_.device);
  EXPECT_EQ(out.candidate_version, record_.candidate_version);
  EXPECT_EQ(out.baseline_version, record_.baseline_version);
  EXPECT_EQ(out.state, record_.state);
  EXPECT_EQ(out.stage_index, record_.stage_index);
  EXPECT_EQ(out.reason, record_.reason);
  EXPECT_EQ(out.baseline_spec, record_.baseline_spec);
}

TEST_F(RolloutRecordSuite, EveryBitFlipIsRejected) {
  // The CRC envelope must catch any single-bit corruption of the persisted
  // record — the exact artifact a torn write or bad sector produces.
  RolloutRecord out;
  for (size_t bit = 0; bit < bytes_.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = bytes_;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const spec::LoadError err = RolloutRecord::load(damaged, out);
    ASSERT_FALSE(err.ok()) << "bit " << bit << " flip was accepted";
  }
}

TEST_F(RolloutRecordSuite, EveryTruncationIsRejected) {
  RolloutRecord out;
  for (size_t len = 0; len < bytes_.size(); ++len) {
    const std::span<const uint8_t> prefix{bytes_.data(), len};
    ASSERT_FALSE(RolloutRecord::load(prefix, out).ok())
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST_F(RolloutRecordSuite, GarbledPayloadUnderValidCrcStillRejected) {
  // Corrupt the nested baseline spec, then reseal the OUTER envelope so
  // the record's own CRC passes: the nested spec's envelope must still
  // reject it — a record whose recovery artifact is damaged is worthless.
  std::vector<uint8_t> damaged = bytes_;
  // The nested spec bytes sit at the record's tail; garble deep inside.
  damaged[damaged.size() - 40] ^= 0xa5;
  spec::reseal(damaged);
  RolloutRecord out;
  const spec::LoadError err = RolloutRecord::load(damaged, out);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.detail.find("baseline"), std::string::npos) << err.describe();
}

TEST_F(RolloutRecordSuite, OutOfRangeStateTagRejected) {
  RolloutRecord bogus = record_;
  bogus.state = static_cast<RolloutState>(9);
  RolloutRecord out;
  const spec::LoadError err = RolloutRecord::load(bogus.serialize(), out);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status, spec::LoadStatus::kMalformed);
}

TEST_F(RolloutRecordSuite, MismatchedNestedDeviceRejected) {
  auto w = guest::make_workload("sdhci");
  const spec::EsCfg other =
      pipeline::build_spec(w->device(), [&] { w->training(); });
  RolloutRecord bogus = record_;
  bogus.baseline_spec = spec::serialize(other);  // fdc record, sdhci spec
  RolloutRecord out;
  const spec::LoadError err = RolloutRecord::load(bogus.serialize(), out);
  EXPECT_EQ(err.status, spec::LoadStatus::kDeviceMismatch);
}

TEST(RolloutStates, NamesAndTerminality) {
  EXPECT_EQ(control::rollout_state_name(RolloutState::kShadow), "Shadow");
  EXPECT_FALSE(control::rollout_terminal(RolloutState::kStaging));
  EXPECT_FALSE(control::rollout_terminal(RolloutState::kShadow));
  EXPECT_FALSE(control::rollout_terminal(RolloutState::kPromoting));
  EXPECT_TRUE(control::rollout_terminal(RolloutState::kActive));
  EXPECT_TRUE(control::rollout_terminal(RolloutState::kRolledBack));
}

}  // namespace
}  // namespace sedspec
