// spec_inspector: look inside an execution specification.
//
// Trains a spec for a chosen device (default: the FDC) and dumps every
// artifact of the pipeline: the ITC-CFG summary, the selected device-state
// parameters with the rule that admitted each, a slice of the device-state-
// change log, the full ES-CFG (blocks, DSOD, NBTD, command access table,
// sync points), and the serialized size.
//
// Usage: spec_inspector [fdc|usb-ehci|pcnet|sdhci|scsi-esp]
#include <cstdio>
#include <string>

#include "cfg/analyzer.h"
#include "common/log.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "spec/builder.h"
#include "spec/serial.h"
#include "statelog/statelog.h"

using namespace sedspec;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kOff);
  const std::string device = argc > 1 ? argv[1] : "fdc";
  auto wl = guest::make_workload(device);

  std::printf("=== phase 1: data collection (%s) ===\n\n", device.c_str());
  const pipeline::CollectionResult collected =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  std::printf("IPT-style trace: %zu packet bytes -> ITC-CFG with %zu nodes, "
              "%zu edges, %llu windows\n",
              collected.trace_bytes, collected.itc_cfg.node_count(),
              collected.itc_cfg.edge_count(),
              (unsigned long long)collected.itc_cfg.window_count());

  const auto& layout = wl->device().program().layout();
  std::printf("\ndevice state parameters (control structure %s):\n",
              layout.struct_name().c_str());
  for (const auto& sel : collected.selection.params) {
    std::printf("  %-14s %-10s  [%s]\n",
                layout.field(sel.param).name.c_str(),
                field_kind_name(layout.field(sel.param).kind).c_str(),
                cfg::selection_rule_name(sel.rule).c_str());
  }
  std::printf("\nsync points from data-dependency recovery: %zu inlined "
              "locals, %zu sync locals\n",
              collected.recovery.inline_defs.size(),
              collected.recovery.sync_points.size());

  std::printf("\ndevice-state-change log: %zu rounds; first round:\n",
              collected.log.round_count());
  statelog::LogCursor cursor(collected.log);
  statelog::LogEntry e;
  while (cursor.next(e)) {
    std::printf("%s",
                statelog::to_text(e, wl->device().program()).c_str());
    if (e.kind == statelog::EntryKind::kRoundEnd) {
      break;
    }
  }

  std::printf("\n=== phase 2: specification construction ===\n\n");
  const spec::EsCfg cfg = pipeline::construct(wl->device(), collected);
  std::printf("%s", cfg.to_text(wl->device().program()).c_str());
  std::printf("\nserialized specification: %zu bytes\n",
              spec::serialize(cfg).size());
  return 0;
}
