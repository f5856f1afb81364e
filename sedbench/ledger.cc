// Bare-engine ledger: replays a recorded access stream through the
// interpreter and the bytecode engine (checker/engine's make_engine), with
// the two engines' passes interleaved so host drift hits both alike. The
// interpreter is the reference: both engines must report the same
// violations and steps on every access, or the run fails.
#include <algorithm>
#include <sstream>

#include "checker/engine/engine.h"
#include "workloads.h"

namespace sedbench {

namespace {

struct Pass {
  double ns = 0;
  uint64_t checks = 0;
  uint64_t steps = 0;
  std::vector<uint64_t> per_access;  // steps, then a violation signature
};

/// One pass over the stream from the recorded starting shadow. `trace`
/// keeps per-access steps and violation sites for the differential.
Pass replay_pass(checker::engine::CheckEngine& engine, StateArena& shadow,
                 const Recording& rec, bool trace) {
  shadow.copy_from(*rec.initial);
  engine.set_active_command(rec.active_cmd);
  const checker::engine::RoundOptions opts;
  Pass p;
  const uint64_t a = now_ns();
  for (const IoAccess& io : rec.accesses) {
    shadow.clear_locals();
    const checker::CheckResult r = engine.check(io, opts);
    p.steps += r.steps;
    if (trace) {
      p.per_access.push_back(r.steps);
      for (const checker::Violation& v : r.violations) {
        p.per_access.push_back(0x8000'0000'0000'0000ULL |
                               (static_cast<uint64_t>(v.strategy) << 32) |
                               v.site);
      }
    }
  }
  p.ns = static_cast<double>(now_ns() - a);
  p.checks = rec.accesses.size();
  return p;
}

}  // namespace

EngineLedger engine_ledger(const spec::EsCfg& cfg, Device& device,
                           const Recording& rec, double seconds) {
  EngineLedger out;
  if (rec.initial == nullptr || rec.accesses.empty()) {
    out.differential_ok = false;
    out.differential_detail = "no recorded accesses";
    return out;
  }
  const StateLayout* layout = &device.program().layout();
  checker::CheckerConfig interp_cfg;
  interp_cfg.engine = checker::EngineKind::kInterpreter;
  checker::CheckerConfig byte_cfg;
  byte_cfg.engine = checker::EngineKind::kBytecode;
  StateArena interp_shadow(layout);
  StateArena byte_shadow(layout);
  interp_shadow.copy_from(*rec.initial);
  byte_shadow.copy_from(*rec.initial);

  // Compile cost: make_engine for the bytecode backend, timed directly.
  std::vector<double> compile_us;
  for (int i = 0; i < 15; ++i) {
    const uint64_t a = now_ns();
    auto engine =
        checker::engine::make_engine(&cfg, &device, &byte_shadow, &byte_cfg);
    compile_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
  }
  out.compile_us = median(compile_us);

  const auto interp = checker::engine::make_engine(&cfg, &device,
                                                   &interp_shadow, &interp_cfg);
  const auto byte =
      checker::engine::make_engine(&cfg, &device, &byte_shadow, &byte_cfg);

  // Differential pass first (untimed for the ledger).
  const Pass ri = replay_pass(*interp, interp_shadow, rec, true);
  const Pass rb = replay_pass(*byte, byte_shadow, rec, true);
  if (ri.per_access != rb.per_access) {
    out.differential_ok = false;
    size_t at = 0;
    while (at < ri.per_access.size() && at < rb.per_access.size() &&
           ri.per_access[at] == rb.per_access[at]) {
      ++at;
    }
    std::ostringstream why;
    why << "interpreter and bytecode diverge at record entry " << at;
    out.differential_detail = why.str();
    return out;
  }

  // Timed passes, interleaved and alternating which engine goes first.
  std::vector<double> byte_ns;
  std::vector<double> ratio;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  for (int i = 0; i < 3 || now_ns() < deadline; ++i) {
    Pass pi;
    Pass pb;
    if (i % 2 == 0) {
      pi = replay_pass(*interp, interp_shadow, rec, false);
      pb = replay_pass(*byte, byte_shadow, rec, false);
    } else {
      pb = replay_pass(*byte, byte_shadow, rec, false);
      pi = replay_pass(*interp, interp_shadow, rec, false);
    }
    if (pi.steps != ri.steps || pb.steps != rb.steps) {
      out.differential_ok = false;
      out.differential_detail = "replay steps changed between passes";
      return out;
    }
    byte_ns.push_back(pb.ns / static_cast<double>(pb.checks));
    ratio.push_back(pi.ns / pb.ns);
  }
  out.check_ns = median(byte_ns);
  out.ns_per_step = out.check_ns * static_cast<double>(rb.checks) /
                    static_cast<double>(std::max<uint64_t>(rb.steps, 1));
  out.bytecode_speedup = median(ratio);
  return out;
}

}  // namespace sedbench
