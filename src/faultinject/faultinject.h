// Deterministic fault-injection harness (robustness layer).
//
// SEDSpec inserts itself into the I/O fast path of a VMM, so its own
// failure behavior is part of the attack surface: a corrupt specification,
// a lossy trace transport, a failing DMA transfer, or a bug inside the
// checker must degrade the deployment predictably (see FailurePolicy in
// checker/checker.h), never crash the hypervisor or silently disable
// protection. This module injects faults at the four seams where those
// failures enter:
//
//   Layer kSpec    — serialized-specification persistence: bit flips,
//                    truncations, version skew, and resealed payload
//                    garbling (corruption under a valid CRC, exercising
//                    the structural decoder rather than the envelope).
//   Layer kTrace   — trace collection transport: dropped, duplicated, and
//                    garbled IPT-style packets between the tracer and the
//                    ITC-CFG builder (pipeline::CollectOptions::packet_tap).
//   Layer kDma     — guest-RAM transfers: failed or short DMA reads/writes
//                    (DmaEngine::set_fault_hook).
//   Layer kChecker — checker-internal malfunction: forced traversal
//                    exceptions, mid-round shadow-state corruption, and
//                    suppressed termination logic (CheckerHooks::fault_hook).
//
// Everything is seed-driven: the same seed reproduces the same fault
// sequence bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "common/rng.h"
#include "vdev/device.h"

namespace sedspec::faultinject {

enum class Layer : uint8_t {
  kSpec = 0,
  kTrace = 1,
  kDma = 2,
  kChecker = 3,
  kControl = 4,  // control-plane rollout machinery (control/campaign.h)
};
inline constexpr size_t kLayerCount = 5;

[[nodiscard]] std::string layer_name(Layer layer);

// Layer kSpec ---------------------------------------------------------------

enum class SpecFaultKind : uint8_t {
  kBitFlip = 0,       // flip one random bit anywhere in the artifact
  kTruncate = 1,      // cut the artifact at a random length
  kVersionSkew = 2,   // rewrite the envelope's format-version field
  kPayloadGarble = 3, // corrupt payload bytes, then reseal length + CRC
};
inline constexpr size_t kSpecFaultKinds = 4;

/// Mutates a serialized spec in place; returns a description of the fault.
std::string corrupt_spec(std::vector<uint8_t>& bytes, SpecFaultKind kind,
                         Rng& rng);

// Layer kTrace --------------------------------------------------------------

enum class TraceFaultKind : uint8_t {
  kDropPacket = 0,
  kDuplicatePacket = 1,
  kGarbleByte = 2,
};
inline constexpr size_t kTraceFaultKinds = 3;

/// Applies `count` faults of `kind` at packet granularity (the buffer is
/// scanned for packet boundaries using the wire format in trace/packets.h).
/// Returns the number of faults actually applied (0 on an empty buffer).
size_t corrupt_packets(std::vector<uint8_t>& bytes, TraceFaultKind kind,
                       size_t count, Rng& rng);

// Layer kDma ----------------------------------------------------------------

enum class DmaFaultKind : uint8_t {
  kFailTransfer = 0,   // the transfer fails outright (guest page fault model)
  kShortTransfer = 1,  // only a random prefix completes; reads zero-fill
};
inline constexpr size_t kDmaFaultKinds = 2;

/// Arms `count` one-shot faults of `kind` on the device's DMA engine (each
/// subsequent transfer consumes one). Returns false if the device has no
/// DMA engine (PIO/MMIO-only devices).
bool arm_dma_faults(Device& device, DmaFaultKind kind, size_t count,
                    uint64_t seed);
void disarm_dma_faults(Device& device);

// Layer kChecker ------------------------------------------------------------

enum class CheckerFaultKind : uint8_t {
  kThrow = 0,          // forced exception mid-traversal
  kShadowCorrupt = 1,  // random scalar shadow field overwritten mid-round
  kRunaway = 2,        // termination checks suppressed; only the watchdog
                       // can end the round
};

/// Arms `count` one-shot internal faults (each checked round consumes one).
void arm_checker_faults(checker::EsChecker& checker, CheckerFaultKind kind,
                        size_t count, uint64_t seed);
void disarm_checker_faults(checker::EsChecker& checker);

// Layer kControl ------------------------------------------------------------
//
// Faults against the rollout control plane (control/control_plane.h). These
// are injected through the plane's dedicated seams — candidate staging,
// the spec-distribution fetcher, shard op hooks, the observation filter,
// and the persisted-record journal — by control::run_control_campaign
// (control/campaign.h), which owns the end-to-end accounting.

enum class ControlFaultKind : uint8_t {
  kCorruptCandidate = 0,  // corrupt the serialized candidate before staging
  kFetchOutage = 1,       // spec-distribution channel hard-down (LoadError
                          // on every fetch; retries must exhaust safely)
  kFetchTransient = 2,    // a few fetch failures, then healthy (bounded
                          // retry/backoff must absorb without a rollback)
  kShardCrash = 3,        // canary shard thread dies mid-window
  kMetricDelay = 4,       // observation feed delayed/blinded for N windows
  kRecordCorrupt = 5,     // persisted rollout record damaged, then resumed
  kCrashPromoting = 6,    // control plane killed mid-Promoting, then resumed
};
inline constexpr size_t kControlFaultKinds = 7;

[[nodiscard]] std::string control_fault_name(ControlFaultKind kind);

}  // namespace sedspec::faultinject
