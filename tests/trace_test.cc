// Unit tests for the IPT-style trace substrate: packet encode/decode
// round-trips (including short-TNT bit packing), address-range and
// kernel-space filtering, and ITC-CFG construction.
#include <gtest/gtest.h>

#include "cfg/itc_cfg.h"
#include "common/rng.h"
#include "trace/encoder.h"
#include "trace/packets.h"

namespace sedspec {
namespace {

using trace::EventKind;
using trace::PacketEncoder;
using trace::TraceEvent;
using trace::TraceFilter;

std::vector<TraceEvent> decode_all(std::span<const uint8_t> bytes) {
  std::vector<TraceEvent> events;
  trace::decode(bytes, [&](const TraceEvent& e) { events.push_back(e); });
  return events;
}

void feed_all(cfg::ItcCfgBuilder& builder,
              const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    builder.feed(e);
  }
}

TEST(TracePackets, SimpleRoundTrip) {
  PacketEncoder enc;
  enc.pge(0x1000);
  enc.tip(0x1010);
  enc.tnt(true);
  enc.tip(0x1020);
  enc.tnt(false);
  enc.pgd();
  const auto events = decode_all(enc.finish());
  const std::vector<TraceEvent> expected = {
      {EventKind::kPge, 0x1000, false}, {EventKind::kTip, 0x1010, false},
      {EventKind::kTnt, 0, true},       {EventKind::kTip, 0x1020, false},
      {EventKind::kTnt, 0, false},      {EventKind::kPgd, 0, false},
  };
  EXPECT_EQ(events, expected);
}

TEST(TracePackets, TntBitsPackSixPerByte) {
  PacketEncoder enc;
  enc.pge(0);
  for (int i = 0; i < 6; ++i) {
    enc.tnt(i % 2 == 0);
  }
  enc.pgd();
  const auto bytes = enc.finish();
  // PGE (1+8) + one packed TNT (1+1) + PGD (1).
  EXPECT_EQ(bytes.size(), 9u + 2u + 1u);
  const auto events = decode_all(bytes);
  int tnt = 0;
  for (const auto& e : events) {
    if (e.kind == EventKind::kTnt) {
      EXPECT_EQ(e.taken, tnt % 2 == 0);
      ++tnt;
    }
  }
  EXPECT_EQ(tnt, 6);
}

TEST(TracePackets, AddressRangeFilterDropsForeignCode) {
  TraceFilter filter;
  filter.range_lo = 0x1000;
  filter.range_hi = 0x2000;
  PacketEncoder enc(filter);
  enc.pge(0x1000);
  enc.tip(0x1800);            // in range
  enc.tip(0x7fff0000);        // shared library: dropped
  enc.tip(0x1ff0);            // in range
  enc.pgd();
  const auto events = decode_all(enc.finish());
  int tips = 0;
  for (const auto& e : events) {
    if (e.kind == EventKind::kTip) {
      EXPECT_GE(e.addr, 0x1000u);
      EXPECT_LT(e.addr, 0x2000u);
      ++tips;
    }
  }
  EXPECT_EQ(tips, 2);
  EXPECT_EQ(enc.dropped_by_filter(), 1u);
}

TEST(TracePackets, KernelSpaceDisabled) {
  TraceFilter filter;  // trace_kernel defaults to false
  PacketEncoder enc(filter);
  enc.pge(0x1000);
  enc.tip(TraceFilter::kKernelBase + 0x1234);
  enc.pgd();
  EXPECT_EQ(enc.dropped_by_filter(), 1u);
}

TEST(TracePackets, MalformedInputThrows) {
  std::vector<uint8_t> junk = {0x99};
  EXPECT_THROW((void)decode_all(junk), sedspec::DecodeError);
  std::vector<uint8_t> truncated = {0x03, 0x01};  // TIP missing bytes
  EXPECT_THROW((void)decode_all(truncated), sedspec::DecodeError);
}

// Property: any interleaving of windows, tips, and branch bits survives the
// encode/decode round trip exactly.
class TraceRoundTrip : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(TraceRoundTrip, RandomStreamsRoundTrip) {
  Rng rng(GetParam());
  PacketEncoder enc;
  std::vector<TraceEvent> expected;
  for (int round = 0; round < 50; ++round) {
    const uint64_t base = 0x1000 + rng.below(512) * 16;
    enc.pge(base);
    expected.push_back({EventKind::kPge, base, false});
    const int n = static_cast<int>(rng.range(1, 20));
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.4)) {
        const bool taken = rng.chance(0.5);
        enc.tnt(taken);
        expected.push_back({EventKind::kTnt, 0, taken});
      } else {
        const uint64_t addr = 0x1000 + rng.below(4096);
        enc.tip(addr);
        expected.push_back({EventKind::kTip, addr, false});
      }
    }
    enc.pgd();
    expected.push_back({EventKind::kPgd, 0, false});
  }
  EXPECT_EQ(decode_all(enc.finish()), expected);
}

TEST(ItcCfg, BuildsLabeledEdges) {
  // One window: A -(seq)-> B -(taken)-> C ; second window: B -(nottaken)-> D
  std::vector<TraceEvent> events = {
      {EventKind::kPge, 0, false},    {EventKind::kTip, 0xa, false},
      {EventKind::kTip, 0xb, false},  {EventKind::kTnt, 0, true},
      {EventKind::kTip, 0xc, false},  {EventKind::kPgd, 0, false},
      {EventKind::kPge, 0, false},    {EventKind::kTip, 0xb, false},
      {EventKind::kTnt, 0, false},    {EventKind::kTip, 0xd, false},
      {EventKind::kPgd, 0, false},
  };
  cfg::ItcCfgBuilder builder;
  feed_all(builder, events);
  const cfg::ItcCfg graph = builder.take();
  EXPECT_EQ(graph.window_count(), 2u);
  ASSERT_NE(graph.node(0xa), nullptr);
  EXPECT_EQ(graph.node(0xa)->succ_seq.at(0xb), 1u);
  EXPECT_EQ(graph.node(0xb)->succ_taken.at(0xc), 1u);
  EXPECT_EQ(graph.node(0xb)->succ_not_taken.at(0xd), 1u);
  EXPECT_EQ(graph.node(0xb)->visits, 2u);
  EXPECT_TRUE(graph.window_heads().contains(0xa));
  EXPECT_TRUE(graph.window_heads().contains(0xb));
  EXPECT_EQ(graph.edge_count(), 3u);
}

TEST(ItcCfg, WindowEndsTracked) {
  std::vector<TraceEvent> events = {
      {EventKind::kPge, 0, false},
      {EventKind::kTip, 0xa, false},
      {EventKind::kPgd, 0, false},
  };
  cfg::ItcCfgBuilder builder;
  feed_all(builder, events);
  const cfg::ItcCfg graph = builder.take();
  EXPECT_EQ(graph.node(0xa)->window_ends, 1u);
}

}  // namespace
}  // namespace sedspec
