// Golden outputs of the offline pipeline (paper §IV trace and observation
// passes, then Algorithm 1) on all five devices.
//
// Collection is pinned byte for byte: the trace packets, the ITC-CFG's
// shape, the state log's entries per kind, the state log's wire encoding
// and the serialized ES-CFG. Any change to how collection is carried out
// (instrumentation, log storage, trace decoding, Algorithm 1's
// bookkeeping) must leave every value here as it is; there is no
// tolerance. Entry kinds are counted by walking the log's wire bytes, so
// the test depends on the wire format only, not on the log's in-memory
// API.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "common/crc32.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

struct Golden {
  const char* device;
  size_t trace_bytes;
  uint32_t trace_crc;
  size_t itc_nodes;
  size_t itc_edges;
  // Entries per statelog::EntryKind, kRoundStart (1) .. kRoundEnd (8).
  std::array<uint64_t, 8> entries;
  size_t log_bytes;
  uint32_t log_crc;
  size_t spec_bytes;
  uint32_t spec_crc;
};

// Walks the state log's wire encoding ("SEDL", u64 count, then one
// kind-tagged record per entry) and counts entries per kind.
std::array<uint64_t, 8> count_kinds(const std::vector<uint8_t>& bytes) {
  std::array<uint64_t, 8> counts{};
  size_t pos = 4;
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + pos, sizeof n);
  pos += sizeof n;
  // Payload bytes after the kind tag, indexed by kind - 1.
  constexpr std::array<size_t, 8> kPayload = {19, 3, 3, 10, 10, 2, 18, 0};
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t kind = bytes.at(pos);
    EXPECT_GE(kind, 1);
    EXPECT_LE(kind, 8);
    if (kind < 1 || kind > 8) {
      return counts;
    }
    ++counts[kind - 1];
    pos += 1 + kPayload[kind - 1];
  }
  EXPECT_EQ(pos, bytes.size());
  return counts;
}

const Golden kGolden[] = {
    {"fdc", 1114778, 0x80ac58fe, 45, 47,
     {33877, 59769, 42575, 53, 86, 46, 17523, 33877}, 1455409, 0xed323b78,
     6229, 0x9d00afd3},
    {"usb-ehci", 7358, 0x37e311af, 35, 38, {159, 484, 256, 48, 0, 0, 100, 159},
     8739, 0xd7d3d3ad, 3234, 0xf3caeed2},
    {"pcnet", 15502, 0x5edb045e, 65, 73, {183, 1274, 806, 35, 0, 0, 321, 183},
     18659, 0x141e40af, 6362, 0x7ab7c23f},
    {"sdhci", 482333, 0x0c6fe9fb, 40, 36,
     {9314, 37048, 27669, 19, 19, 19, 9368, 9314}, 632941, 0x1ceafded, 5434,
     0xe3d8d59f},
    {"scsi-esp", 9650, 0x126dd8db, 38, 37, {347, 581, 84, 59, 89, 15, 502, 347},
     21170, 0xac234248, 4696, 0xd3ac948c},
};

TEST(Pipeline, CollectionIsByteIdentical) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.device);
    auto wl = guest::make_workload(g.device);
    uint32_t trace_crc = 0;
    pipeline::CollectOptions opts;
    opts.packet_tap = [&](std::vector<uint8_t>& packets) {
      trace_crc = crc32(packets);
    };
    const pipeline::CollectionResult collected =
        pipeline::collect(wl->device(), [&] { wl->training(); }, opts);
    const spec::EsCfg cfg = pipeline::construct(wl->device(), collected);
    wl->device().reset();

    const std::vector<uint8_t> log_bytes = collected.log.serialize();
    const std::vector<uint8_t> spec_bytes = spec::serialize(cfg);
    EXPECT_EQ(collected.trace_bytes, g.trace_bytes);
    EXPECT_EQ(trace_crc, g.trace_crc);
    EXPECT_EQ(collected.itc_cfg.node_count(), g.itc_nodes);
    EXPECT_EQ(collected.itc_cfg.edge_count(), g.itc_edges);
    EXPECT_EQ(count_kinds(log_bytes), g.entries);
    EXPECT_EQ(log_bytes.size(), g.log_bytes);
    EXPECT_EQ(crc32(log_bytes), g.log_crc);
    EXPECT_EQ(spec_bytes.size(), g.spec_bytes);
    EXPECT_EQ(crc32(spec_bytes), g.spec_crc);
  }
}

}  // namespace
}  // namespace sedspec
