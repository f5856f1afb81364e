// Unit tests for the device-state-change log: recorder behavior, the
// decoding round cursor, binary round-trip, and the observation-plan site
// filter.
#include <gtest/gtest.h>

#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "statelog/statelog.h"

namespace sedspec {
namespace {

using statelog::DeviceStateLog;
using statelog::EntryKind;
using statelog::LogCursor;
using statelog::LogEntry;
using statelog::LogRecorder;

// Every entry of `log` in order, decoded through a cursor.
std::vector<LogEntry> entries_of(const DeviceStateLog& log) {
  std::vector<LogEntry> out;
  LogCursor cursor(log);
  LogEntry e;
  while (cursor.next(e)) {
    out.push_back(e);
  }
  return out;
}

size_t rounds_of(const DeviceStateLog& log) {
  size_t n = 0;
  for (const LogEntry& e : entries_of(log)) {
    n += e.kind == EntryKind::kRoundStart ? 1 : 0;
  }
  return n;
}

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
  const std::vector<LogEntry> entries = entries_of(log);
  ASSERT_EQ(rounds_of(log), 1u);
  EXPECT_EQ(entries.front().io, sample_io());
  EXPECT_EQ(entries.size(), 8u);
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
  EXPECT_EQ(entries_of(restored), entries_of(log));
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
  for (const auto& e : entries_of(log)) {
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
// a real training log it must agree with the round cursor, also after a
// binary round trip and a merge.
TEST(StateLog, RoundCountMatchesRoundsOnRecordedTrainingLog) {
  auto wl = guest::make_workload("fdc");
  const pipeline::CollectionResult collected =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  const DeviceStateLog& log = collected.log;
  const size_t rounds = rounds_of(log);
  ASSERT_GT(rounds, 0u);
  EXPECT_EQ(log.round_count(), rounds);
  DeviceStateLog restored = DeviceStateLog::deserialize(log.serialize());
  EXPECT_EQ(restored.round_count(), rounds);
  restored.merge(log);
  EXPECT_EQ(restored.round_count(), 2 * rounds);
  EXPECT_EQ(rounds_of(restored), 2 * rounds);
}

TEST(StateLog, MalformedRoundStructureThrows) {
  LogRecorder rec;
  rec.round_start(sample_io());
  rec.round_start(sample_io());  // nested round
  EXPECT_THROW((void)entries_of(rec.log()), std::logic_error);
}

// Records one round per access size and direction in `space`, each round
// carrying every entry kind at its fields' limits and every BlockKind, and
// appends the entries the cursor must decode to `want`.
void record_limits(LogRecorder& rec, IoSpace space,
                   std::vector<LogEntry>& want) {
  constexpr uint64_t kMax = ~uint64_t{0};
  auto expect = [&](EntryKind kind, SiteId site) -> LogEntry& {
    LogEntry& e = want.emplace_back();
    e.kind = kind;
    e.site = site;
    return e;
  };
  for (uint8_t size : {1, 2, 4, 8}) {
    for (bool is_write : {false, true}) {
      IoAccess io;
      io.space = space;
      io.addr = kMax - size;
      io.size = size;
      io.value = kMax;
      io.is_write = is_write;
      rec.round_start(io);
      expect(EntryKind::kRoundStart, 0).io = io;
      for (BlockKind k : {BlockKind::kPlain, BlockKind::kConditional,
                          BlockKind::kIndirect, BlockKind::kCmdDecision,
                          BlockKind::kCmdEnd}) {
        rec.site_enter(kInvalidSite, k);
        expect(EntryKind::kSiteEnter, kInvalidSite).block_kind = k;
      }
      rec.branch(kInvalidSite, is_write);
      expect(EntryKind::kBranch, kInvalidSite).taken = is_write;
      rec.indirect(0, kMax);
      expect(EntryKind::kIndirect, 0).target = kMax;
      rec.command(kInvalidSite, kMax - 1);
      expect(EntryKind::kCommand, kInvalidSite).cmd = kMax - 1;
      rec.command_end(kInvalidSite);
      expect(EntryKind::kCommandEnd, kInvalidSite);
      for (ParamId param : {kInvalidParam, ParamId{0}}) {
        const uint64_t old_value = param == 0 ? 0 : kMax;
        rec.param_change(param, old_value, ~old_value);
        LogEntry& e = expect(EntryKind::kParamChange, 0);
        e.param = param;
        e.old_value = old_value;
        e.new_value = ~old_value;
      }
      rec.round_end();
      expect(EntryKind::kRoundEnd, 0);
    }
  }
}

// The cursor decodes exactly what the recorder encoded, at every field's
// limits and for every value of every enum the encoding carries, also
// after a binary round trip and for a log rebuilt by merge(); and
// deserialize() rejects every truncation and a garbled entry kind.
TEST(Statelog, CursorRoundTripsLimits) {
  LogRecorder rec;
  std::vector<LogEntry> want;
  record_limits(rec, IoSpace::kPio, want);
  record_limits(rec, IoSpace::kMmio, want);
  const DeviceStateLog log = rec.take();
  ASSERT_EQ(log.entry_count(), want.size());
  EXPECT_EQ(log.round_count(), 16u);
  EXPECT_EQ(entries_of(log), want);

  const std::vector<uint8_t> bytes = log.serialize();
  const DeviceStateLog restored = DeviceStateLog::deserialize(bytes);
  EXPECT_EQ(entries_of(restored), want);
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_EQ(restored.round_count(), log.round_count());

  LogRecorder front;
  LogRecorder back;
  std::vector<LogEntry> unused;
  record_limits(front, IoSpace::kPio, unused);
  record_limits(back, IoSpace::kMmio, unused);
  DeviceStateLog merged = front.take();
  merged.merge(back.log());
  EXPECT_EQ(entries_of(merged), want);
  EXPECT_EQ(merged.serialize(), bytes);
  EXPECT_EQ(merged.round_count(), log.round_count());
  EXPECT_EQ(merged.entry_count(), log.entry_count());

  // Every proper prefix is short of the header's entry count.
  for (size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const uint8_t> prefix(bytes.data(), n);
    EXPECT_THROW((void)DeviceStateLog::deserialize(prefix), DecodeError)
        << "prefix of " << n << " bytes";
  }
  // An unknown kind where the first entry's kind byte is.
  for (uint8_t kind : {uint8_t{0}, uint8_t{9}, uint8_t{0xff}}) {
    std::vector<uint8_t> garbled = bytes;
    garbled[12] = kind;
    EXPECT_THROW((void)DeviceStateLog::deserialize(garbled), DecodeError);
  }
}

}  // namespace
}  // namespace sedspec
