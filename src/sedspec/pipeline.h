// End-to-end SEDSpec pipeline facade (paper Fig. 1).
//
// Phase 1 (data collection): run the benign training workload under the
//   IPT-style tracer, build the ITC-CFG, select device-state parameters and
//   the observation plan; re-run the workload with observation points armed
//   to produce the device-state-change log.
// Phase 2 (specification construction): run data-dependency recovery and
//   Algorithm 1 over the log, apply control-flow reduction.
// Phase 3 (runtime protection): deploy an ES-Checker as the bus proxy.
//
// The training workload is a callback that drives the device through benign
// I/O (typically via the guest driver models in src/guest). It runs twice
// (trace pass + observation pass), with a device reset in between, exactly
// like the paper's two collection passes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cfg/analyzer.h"
#include "checker/checker.h"
#include "dataflow/dataflow.h"
#include "spec/builder.h"
#include "spec/serial.h"
#include "statelog/statelog.h"
#include "trace/encoder.h"
#include "vdev/bus.h"

namespace sedspec::pipeline {

struct CollectionResult {
  cfg::ItcCfg itc_cfg;
  cfg::ParamSelection selection;
  dataflow::RecoveryPlan recovery;
  statelog::DeviceStateLog log;
  size_t trace_bytes = 0;
};

struct CollectOptions {
  /// Fault-injection seam (faultinject layer 2): invoked on the raw packet
  /// buffer between the tracer and the ITC-CFG decoder, where a lossy or
  /// garbling trace transport would sit. The tap may drop, duplicate, or
  /// corrupt packets in place.
  std::function<void(std::vector<uint8_t>&)> packet_tap;
};

/// Phase 1: trace pass + analysis + observation pass.
CollectionResult collect(Device& device,
                         const std::function<void()>& training,
                         const CollectOptions& options);
CollectionResult collect(Device& device,
                         const std::function<void()>& training);

/// Phase 2: Algorithm 1 + reduction over a collection result.
[[nodiscard]] spec::EsCfg construct(Device& device,
                                    const CollectionResult& collection);

/// Phases 1+2 in one call. The device is reset before returning. Calls on
/// different devices are independent: enforce::publish_device_specs runs
/// one per device, each on its own thread with its own workload.
[[nodiscard]] spec::EsCfg build_spec(Device& device,
                                     const std::function<void()>& training);

/// Phase 3: create a checker and install it as the bus proxy.
[[nodiscard]] std::unique_ptr<checker::EsChecker> deploy(
    const spec::EsCfg& cfg, Device& device, IoBus& bus,
    checker::CheckerConfig config = {});

/// Phase 3 from persisted bytes. On any defect — corrupt envelope,
/// malformed payload, spec/device name mismatch — no checker is installed
/// (the bus proxy is untouched) and `error` says why. This is the
/// trust boundary a real deployment crosses when it loads a specification
/// from storage; it must reject, never abort.
struct DeployOutcome {
  std::unique_ptr<checker::EsChecker> checker;
  /// Owns the deserialized spec the checker points into.
  std::unique_ptr<spec::EsCfg> cfg;
  spec::LoadError error;

  [[nodiscard]] bool ok() const { return checker != nullptr; }
};

[[nodiscard]] DeployOutcome deploy_serialized(
    std::span<const uint8_t> bytes, Device& device, IoBus& bus,
    checker::CheckerConfig config = {});

}  // namespace sedspec::pipeline
