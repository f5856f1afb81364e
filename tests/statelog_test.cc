// Unit tests for the device-state-change log: recorder behavior, round
// iteration, binary round-trip, and the observation-plan site filter.
#include <gtest/gtest.h>

#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "statelog/statelog.h"

namespace sedspec {
namespace {

using statelog::DeviceStateLog;
using statelog::EntryKind;
using statelog::LogRecorder;

IoAccess sample_io() {
  IoAccess io;
  io.space = IoSpace::kMmio;
  io.addr = 0x1000;
  io.size = 4;
  io.value = 0xabcd;
  io.is_write = true;
  return io;
}

TEST(StateLog, RecorderCapturesRoundStructure) {
  LogRecorder rec;
  rec.round_start(sample_io());
  rec.site_enter(3, BlockKind::kPlain);
  rec.branch(4, true);
  rec.indirect(5, 0x4000);
  rec.command(6, 0x42);
  rec.param_change(2, 1, 7);
  rec.command_end(7);
  rec.round_end();

  const DeviceStateLog log = rec.take();
  EXPECT_EQ(log.round_count(), 1u);
  const auto rounds = log.rounds();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].io(), sample_io());
  EXPECT_EQ(rounds[0].entries.size(), 8u);
}

TEST(StateLog, BinaryRoundTrip) {
  LogRecorder rec;
  for (int round = 0; round < 3; ++round) {
    rec.round_start(sample_io());
    rec.site_enter(static_cast<SiteId>(round), BlockKind::kConditional);
    rec.branch(static_cast<SiteId>(round), round % 2 == 0);
    rec.param_change(1, round, round + 1);
    rec.round_end();
  }
  const DeviceStateLog log = rec.take();
  const auto bytes = log.serialize();
  const DeviceStateLog restored = DeviceStateLog::deserialize(bytes);
  EXPECT_EQ(restored.entries(), log.entries());
}

TEST(StateLog, DeserializeRejectsBadMagic) {
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW((void)DeviceStateLog::deserialize(junk), sedspec::DecodeError);
}

TEST(StateLog, SiteFilterDropsUnplannedPlainSites) {
  std::set<SiteId> plan = {1};
  LogRecorder rec;
  rec.set_site_filter(&plan);
  rec.round_start(sample_io());
  rec.site_enter(1, BlockKind::kPlain);        // in plan: kept
  rec.site_enter(2, BlockKind::kPlain);        // not in plan: dropped
  rec.site_enter(3, BlockKind::kConditional);  // control flow: always kept
  rec.round_end();
  const DeviceStateLog log = rec.take();
  int sites = 0;
  for (const auto& e : log.entries()) {
    if (e.kind == EntryKind::kSiteEnter) {
      EXPECT_NE(e.site, 2);
      ++sites;
    }
  }
  EXPECT_EQ(sites, 2);
}

TEST(StateLog, MergeConcatenates) {
  LogRecorder a;
  a.round_start(sample_io());
  a.round_end();
  LogRecorder b;
  b.round_start(sample_io());
  b.round_end();
  DeviceStateLog merged = a.take();
  merged.merge(b.log());
  EXPECT_EQ(merged.round_count(), 2u);
}

// round_count() is kept as entries are appended rather than recounted; on
// a real training log it must agree with the round iterator, also after a
// binary round trip and a merge.
TEST(StateLog, RoundCountMatchesRoundsOnRecordedTrainingLog) {
  auto wl = guest::make_workload("fdc");
  const pipeline::CollectionResult collected =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  const DeviceStateLog& log = collected.log;
  const size_t rounds = log.rounds().size();
  ASSERT_GT(rounds, 0u);
  EXPECT_EQ(log.round_count(), rounds);
  DeviceStateLog restored = DeviceStateLog::deserialize(log.serialize());
  EXPECT_EQ(restored.round_count(), rounds);
  restored.merge(log);
  EXPECT_EQ(restored.round_count(), 2 * rounds);
  EXPECT_EQ(restored.rounds().size(), 2 * rounds);
}

TEST(StateLog, MalformedRoundStructureThrows) {
  DeviceStateLog log;
  statelog::LogEntry start;
  start.kind = EntryKind::kRoundStart;
  start.io = sample_io();
  log.append(start);
  log.append(start);  // nested round
  EXPECT_THROW((void)log.rounds(), std::logic_error);
}

}  // namespace
}  // namespace sedspec
