// Unit tests for the virtualization substrate: guest memory, DMA, IRQ
// lines, the I/O bus (dispatch, proxy veto, halted devices), and the
// instrumentation context's trace/observe plumbing.
#include <gtest/gtest.h>

#include <chrono>

#include "statelog/statelog.h"
#include "trace/encoder.h"
#include "vdev/bus.h"
#include "vdev/device.h"
#include "vdev/dma.h"
#include "vdev/memory.h"

namespace sedspec {
namespace {

TEST(GuestMemory, InBoundsRoundTrip) {
  GuestMemory mem(4096);
  mem.w32(100, 0xdeadbeef);
  EXPECT_EQ(mem.r32(100), 0xdeadbeefu);
  mem.w64(200, 0x1122334455667788ULL);
  EXPECT_EQ(mem.r64(200), 0x1122334455667788ULL);
}

TEST(GuestMemory, OutOfRangeIsSoft) {
  GuestMemory mem(64);
  EXPECT_EQ(mem.r32(62), 0u);  // crosses the end: zero-filled
  mem.w32(62, 0x41414141);     // crosses the end: dropped
  EXPECT_EQ(mem.r16(62), 0u);  // in bounds, but the write never landed
  EXPECT_EQ(mem.fault_count(), 2u);
}

TEST(Dma, TransfersAndCounts) {
  GuestMemory mem(4096);
  DmaEngine dma(&mem);
  std::vector<uint8_t> out = {1, 2, 3, 4};
  EXPECT_TRUE(dma.to_guest(64, out));
  std::vector<uint8_t> in(4);
  EXPECT_TRUE(dma.from_guest(64, in));
  EXPECT_EQ(in, out);
  EXPECT_EQ(dma.bytes_written(), 4u);
  EXPECT_EQ(dma.bytes_read(), 4u);
  EXPECT_EQ(dma.transfer_count(), 2u);
}

TEST(Irq, EdgeCountingAndSink) {
  IrqLine irq;
  int pulses = 0;
  irq.set_sink([&](bool level) { pulses += level ? 1 : 0; });
  irq.pulse();
  irq.pulse();
  irq.raise();
  irq.raise();  // already high: no new edge, but the sink still fires
  EXPECT_EQ(irq.raise_count(), 3u);
  EXPECT_EQ(pulses, 4);
  EXPECT_TRUE(irq.level());
  irq.lower();
  EXPECT_FALSE(irq.level());
}

// A trivial device: one register that counts accesses.
struct CounterDevice final : Device {
  static std::unique_ptr<DeviceProgram> make_program() {
    StateLayout layout("Counter");
    auto reg = layout.add_scalar("reg", FieldKind::kRegister, IntType::kU32);
    auto program =
        std::make_unique<DeviceProgram>("counter", std::move(layout), 0x9000);
    site_touch = program->add_plain(
        "touch", {sb::assign(reg, eb::io_value(IntType::kU32))});
    param_reg = reg;
    return program;
  }

  CounterDevice() : CounterDevice(make_program()) {}
  explicit CounterDevice(std::unique_ptr<DeviceProgram> p)
      : Device(p.get()), program_storage(std::move(p)) {
    reset();
  }
  void reset_device() override {}
  uint64_t io_read(const IoAccess& io) override {
    IoRound round(ictx(), io);
    ++reads;
    return state().get(param_reg);
  }
  void io_write(const IoAccess& io) override {
    IoRound round(ictx(), io);
    ictx().block(site_touch);
    ++writes;
  }

  static inline SiteId site_touch = 0;
  static inline ParamId param_reg = 0;
  std::unique_ptr<DeviceProgram> program_storage;
  int reads = 0;
  int writes = 0;
};

TEST(IoBus, DispatchAndUnmapped) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  bus.write(IoSpace::kPio, 0x104, 4, 55);
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x104, 4), 55u);
  EXPECT_EQ(dev.writes, 1);
  // Unmapped: float high, no dispatch.
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x900, 2), 0xffffu);
  bus.write(IoSpace::kMmio, 0x100, 4, 1);  // wrong space: ignored
  EXPECT_EQ(dev.writes, 1);
}

TEST(IoBus, OverlappingMappingRejected) {
  CounterDevice a;
  CounterDevice b;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &a);
  EXPECT_THROW(bus.map(IoSpace::kPio, 0x104, 8, &b), std::logic_error);
}

struct VetoProxy final : IoProxy {
  bool allow = true;
  int before = 0;
  int after = 0;
  bool before_access(Device&, const IoAccess&) override {
    ++before;
    return allow;
  }
  void after_access(Device&, const IoAccess&) override { ++after; }
};

TEST(IoBus, ProxyVetoBlocksAccess) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  VetoProxy proxy;
  bus.set_proxy(&proxy);
  bus.write(IoSpace::kPio, 0x100, 4, 7);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(proxy.after, 1);
  proxy.allow = false;
  bus.write(IoSpace::kPio, 0x100, 4, 9);
  EXPECT_EQ(dev.writes, 1);  // vetoed
  EXPECT_EQ(bus.blocked_count(), 1u);
  EXPECT_EQ(proxy.after, 1);  // no after_access for vetoed rounds
}

TEST(IoBus, HaltedDeviceRefusesAccess) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  dev.set_halted(true);
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x100, 4), 0u);
  EXPECT_EQ(dev.reads, 0);
  EXPECT_EQ(bus.blocked_count(), 1u);
}

TEST(Instrumentation, TraceAndObserveStreams) {
  CounterDevice dev;
  trace::PacketEncoder enc;
  statelog::LogRecorder rec;
  dev.ictx().set_trace_sink(&enc);
  dev.ictx().set_observer(&rec);
  IoAccess io;
  io.addr = 0x100;
  io.value = 3;
  io.is_write = true;
  dev.io_write(io);
  dev.ictx().set_trace_sink(nullptr);
  dev.ictx().set_observer(nullptr);

  std::vector<trace::TraceEvent> events;
  trace::decode(enc.finish(),
                [&](const trace::TraceEvent& e) { events.push_back(e); });
  ASSERT_GE(events.size(), 3u);  // PGE, TIP, PGD
  EXPECT_EQ(events.front().kind, trace::EventKind::kPge);
  EXPECT_EQ(events.back().kind, trace::EventKind::kPgd);

  const auto log = rec.take();
  EXPECT_EQ(log.round_count(), 1u);
  bool saw_param_change = false;
  statelog::LogCursor cursor(log);
  statelog::LogEntry e;
  while (cursor.next(e)) {
    if (e.kind == statelog::EntryKind::kParamChange) {
      saw_param_change = true;
      EXPECT_EQ(e.new_value, 3u);
    }
  }
  EXPECT_TRUE(saw_param_change);
}

TEST(Instrumentation, NestedRoundRejected) {
  CounterDevice dev;
  IoAccess io;
  dev.ictx().begin_round(io);
  EXPECT_THROW(dev.ictx().begin_round(io), std::logic_error);
  dev.ictx().end_round();
}

TEST(Instrumentation, WatchdogRecordsIncident) {
  CounterDevice dev;
  IoAccess io;
  IoRound round(dev.ictx(), io);
  uint32_t counter = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(dev.ictx().watchdog(counter, 5, "test loop"));
  }
  EXPECT_TRUE(dev.ictx().watchdog(counter, 5, "test loop"));
  EXPECT_TRUE(dev.has_incident(IncidentKind::kRunawayLoop));
}


TEST(LatencyModel, BusAndBackendWaitsAreMeasurable) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  bus.set_access_latency_ns(200'000);  // 0.2 ms per access
  const auto start = std::chrono::steady_clock::now();
  (void)bus.read(IoSpace::kPio, 0x100, 4);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(secs, 0.0002);
  // Zero latency (the default) must not wait at all.
  spin_wait_ns(0);
}

}  // namespace
}  // namespace sedspec
