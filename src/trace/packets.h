// IPT-style trace packets.
//
// The paper collects device control flow with Intel Processor Trace
// (§IV-A). We reproduce the packet-level interface in software: the
// instrumented device emits PGE/PGD (trace on/off at I/O entry/exit), TIP
// (block entry / indirect target addresses) and TNT (conditional branch
// direction) packets. TNT bits are packed up to six per packet as in real
// IPT short-TNT encoding. The decoder recovers the exact event stream an
// IPT decoder would hand to FlowGuard's ITC-CFG construction, and streams
// it into its consumer event by event.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "expr/ids.h"

namespace sedspec::trace {

enum class EventKind : uint8_t {
  kPge = 1,  // packet generation enable: trace window opens (I/O entry)
  kPgd = 2,  // packet generation disable: window closes (I/O exit)
  kTip = 3,  // target instruction pointer: block entry or indirect target
  kTnt = 4,  // taken/not-taken conditional bit
};

struct TraceEvent {
  EventKind kind = EventKind::kTip;
  FuncAddr addr = 0;  // kPge / kTip
  bool taken = false;  // kTnt

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Address-range / privilege filter, mirroring the paper's IPT
/// configuration: "the IPT module calculates the range of the emulated
/// device code ... and sets it as the range of addresses that can be
/// collected"; "tracing of kernel space control flow is disabled".
struct TraceFilter {
  FuncAddr range_lo = 0;
  FuncAddr range_hi = ~FuncAddr{0};
  bool trace_kernel = false;

  static constexpr FuncAddr kKernelBase = 0xffff'8000'0000'0000ULL;

  [[nodiscard]] bool pass(FuncAddr addr) const {
    if (!trace_kernel && addr >= kKernelBase) {
      return false;
    }
    return addr >= range_lo && addr < range_hi;
  }
};

// Wire format (little-endian):
//   0x01 <u64 addr>       PGE
//   0x02                  PGD
//   0x03 <u64 addr>       TIP
//   0x04 <u8 header>      short TNT: header = (1 << (n)) | bits, n in [1,6]
//                         (stop-bit encoding: the highest set bit marks the
//                         end; lower bits are branch outcomes, LSB first)
inline constexpr uint8_t kOpPge = 0x01;
inline constexpr uint8_t kOpPgd = 0x02;
inline constexpr uint8_t kOpTip = 0x03;
inline constexpr uint8_t kOpTnt = 0x04;

/// Decodes a packet buffer, handing each event to `sink` (any callable
/// taking a const TraceEvent&) as soon as it is decoded, so a consumer
/// such as the ITC-CFG builder sees the stream without an event vector in
/// between. Throws DecodeError on malformed input (truncated buffer,
/// unknown opcode, empty TNT header) — a garbled trace is untrusted data,
/// recoverable by the collection pipeline, not a programming error. The
/// events before the defect have been handed to `sink` by then.
template <typename Sink>
void decode(std::span<const uint8_t> bytes, Sink&& sink) {
  ByteReader reader(bytes);
  while (!reader.done()) {
    const uint8_t op = reader.u8();
    switch (op) {
      case kOpPge:
        sink(TraceEvent{EventKind::kPge, reader.u64(), false});
        break;
      case kOpPgd:
        sink(TraceEvent{EventKind::kPgd, 0, false});
        break;
      case kOpTip:
        sink(TraceEvent{EventKind::kTip, reader.u64(), false});
        break;
      case kOpTnt: {
        const uint8_t header = reader.u8();
        SEDSPEC_CHECK_DECODE(header != 0, "empty TNT packet");
        // Highest set bit is the stop marker; bits below it are outcomes,
        // LSB = oldest branch.
        int stop = 7;
        while (((header >> stop) & 1u) == 0) {
          --stop;
        }
        for (int i = 0; i < stop; ++i) {
          sink(TraceEvent{EventKind::kTnt, 0, ((header >> i) & 1u) != 0});
        }
        break;
      }
      default:
        SEDSPEC_CHECK_DECODE(false, "unknown trace packet opcode");
    }
  }
}

}  // namespace sedspec::trace
