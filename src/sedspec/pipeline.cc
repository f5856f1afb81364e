#include "sedspec/pipeline.h"

#include "common/log.h"
#include "obs/trace.h"

namespace sedspec::pipeline {

CollectionResult collect(Device& device,
                         const std::function<void()>& training) {
  return collect(device, training, CollectOptions{});
}

CollectionResult collect(Device& device,
                         const std::function<void()>& training,
                         const CollectOptions& options) {
  CollectionResult out;

  // Pass 1: IPT-style trace, filtered to the device's code range with
  // kernel-space tracing disabled (paper §IV-A).
  std::vector<uint8_t> packets;
  {
    obs::PhaseScope phase("trace_pass", device.name());
    trace::TraceFilter filter;
    filter.range_lo = device.program().code_base();
    filter.range_hi = device.program().code_end();
    filter.trace_kernel = false;
    trace::PacketEncoder encoder(filter);

    device.reset();
    device.ictx().set_trace_sink(&encoder);
    training();
    device.ictx().set_trace_sink(nullptr);
    packets = encoder.finish();
  }
  if (options.packet_tap) {
    options.packet_tap(packets);
  }
  out.trace_bytes = packets.size();
  {
    obs::PhaseScope phase("itc_cfg", device.name());
    cfg::ItcCfgBuilder itc_builder;
    itc_builder.feed_packets(packets);
    out.itc_cfg = itc_builder.take();

    // CFG analysis: device-state parameter selection + observation plan.
    out.selection = cfg::analyze(out.itc_cfg, device.program());
  }

  {
    // Data-dependency recovery plan over the source.
    obs::PhaseScope phase("dataflow", device.name());
    out.recovery = dataflow::analyze_dependencies(device.program());
  }

  // Pass 2: observation points armed, produce the state-change log.
  {
    obs::PhaseScope phase("observe_pass", device.name());
    statelog::LogRecorder recorder;
    recorder.set_site_filter(&out.selection.observation_sites);
    device.reset();
    device.ictx().set_observer(&recorder);
    training();
    device.ictx().set_observer(nullptr);
    out.log = recorder.take();
  }

  log_info("pipeline") << device.name() << ": collected "
                       << out.log.round_count() << " rounds, "
                       << out.itc_cfg.node_count() << " ITC-CFG nodes, "
                       << out.selection.params.size() << " parameters";
  return out;
}

spec::EsCfg construct(Device& device, const CollectionResult& collection) {
  obs::PhaseScope phase("es_cfg_build", device.name());
  return spec::EsCfgBuilder::build(device.program(), collection.selection,
                                   collection.recovery, collection.log);
}

spec::EsCfg build_spec(Device& device,
                       const std::function<void()>& training) {
  const CollectionResult collection = collect(device, training);
  spec::EsCfg cfg = construct(device, collection);
  device.reset();
  return cfg;
}

std::unique_ptr<checker::EsChecker> deploy(const spec::EsCfg& cfg,
                                           Device& device, IoBus& bus,
                                           checker::CheckerConfig config) {
  auto checker = std::make_unique<checker::EsChecker>(&cfg, &device, config);
  bus.set_proxy(checker.get());
  // Host-side device activity (e.g. wire frame delivery) mutates the
  // control structure outside any guest I/O round; the shadow must pick
  // those changes up before the next checked access.
  checker::EsChecker* raw = checker.get();
  device.set_internal_activity_hook([raw] { raw->resync(); });
  return checker;
}

DeployOutcome deploy_serialized(std::span<const uint8_t> bytes,
                                Device& device, IoBus& bus,
                                checker::CheckerConfig config) {
  DeployOutcome out;
  spec::LoadResult loaded = spec::load(bytes);
  if (!loaded.ok()) {
    out.error = loaded.error;
    log_warn("pipeline") << device.name()
                         << ": rejected spec — " << out.error.describe();
    return out;
  }
  if (loaded.cfg->device_name != device.program().device_name()) {
    out.error.status = spec::LoadStatus::kDeviceMismatch;
    out.error.detail = "spec is for '" + loaded.cfg->device_name +
                       "', device is '" + device.program().device_name() +
                       "'";
    log_warn("pipeline") << device.name()
                         << ": rejected spec — " << out.error.describe();
    return out;
  }
  out.cfg = std::make_unique<spec::EsCfg>(std::move(*loaded.cfg));
  try {
    out.checker = deploy(*out.cfg, device, bus, config);
  } catch (const std::exception& e) {
    // The payload decoded structurally but violates a semantic invariant
    // the checker constructor enforces (dangling site, bad local index…).
    // Untrusted persistence input, so it is a load rejection, not a bug.
    out.cfg.reset();
    bus.set_proxy(nullptr);
    device.set_internal_activity_hook({});
    out.error.status = spec::LoadStatus::kMalformed;
    out.error.detail = e.what();
    log_warn("pipeline") << device.name()
                         << ": rejected spec — " << out.error.describe();
  }
  return out;
}

}  // namespace sedspec::pipeline
