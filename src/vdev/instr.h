// Instrumentation context — the device-side execution engine.
//
// Devices drive their state-relevant logic through this context:
//
//   IoRound round(ictx, io);             // one I/O interaction round
//   ictx.block(SITE_A);                  // execute SITE_A's DSOD
//   if (ictx.branch(SITE_B)) { ... }     // evaluate SITE_B's NBTD guard
//   uint64_t cmd = ictx.command(SITE_C); // command-decision block
//   ictx.indirect(SITE_D);               // call through a fp field
//   ictx.command_end(SITE_E);
//
// Execution is native (unchecked, wrapping) — the context *is* the compiled
// device binary for the state-relevant slice of the code. When a TraceSink
// is attached it emits IPT-style packets (paper §IV-A); when a StateObserver
// is attached it emits the device-state-change log (paper §IV-B). Both are
// normally detached, so production runs pay only a couple of null checks —
// mirroring how IPT tracing is enabled only during data collection.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "expr/eval.h"
#include "expr/io.h"
#include "program/arena.h"
#include "program/program.h"

namespace sedspec {

/// Receives IPT-style packets. Implemented by trace::PacketEncoder.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void pge(FuncAddr addr) = 0;      // trace-on at I/O entry
  virtual void pgd() = 0;                   // trace-off at I/O exit
  virtual void tip(FuncAddr addr) = 0;      // taken-indirect/target packet
  virtual void tnt(bool taken) = 0;         // conditional direction
};

/// Receives the device-state-change log. Implemented by
/// statelog::LogRecorder.
class StateObserver {
 public:
  virtual ~StateObserver() = default;
  virtual void round_start(const IoAccess& io) = 0;
  virtual void site_enter(SiteId site, BlockKind kind) = 0;
  virtual void branch(SiteId site, bool taken) = 0;
  virtual void indirect(SiteId site, FuncAddr target) = 0;
  virtual void command(SiteId site, uint64_t cmd) = 0;
  virtual void command_end(SiteId site) = 0;
  virtual void param_change(ParamId param, uint64_t old_raw,
                            uint64_t new_raw) = 0;
  virtual void round_end() = 0;
};

class InstrumentationContext {
 public:
  InstrumentationContext(const DeviceProgram* program, StateArena* arena,
                         std::function<void(const Incident&)> incident_fn);

  // --- Wiring -------------------------------------------------------------
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  void set_observer(StateObserver* observer) { observer_ = observer; }
  [[nodiscard]] bool observed() const { return observer_ != nullptr; }

  /// Registers the runnable body for a program function address.
  void bind_function(FuncAddr addr, std::function<void()> fn);

  // --- Round management (prefer the IoRound RAII guard) -------------------
  void begin_round(const IoAccess& io);
  void end_round();
  [[nodiscard]] const IoAccess& io() const;

  // --- Site execution ------------------------------------------------------
  /// Executes the site's DSOD. For sites containing a buf_fill, `fill` is
  /// invoked with the (clamped) destination region so the device can copy
  /// real data.
  void block(SiteId site);
  void block(SiteId site, const std::function<void(std::span<uint8_t>)>& fill);

  /// Executes DSOD, evaluates the NBTD guard, emits TNT, returns direction.
  [[nodiscard]] bool branch(SiteId site);

  /// Executes DSOD, then calls through the site's function-pointer field.
  /// An address not in the function table records a kHijackedCall incident
  /// (real QEMU: arbitrary code execution) and the call is skipped.
  void indirect(SiteId site);

  /// Command-decision block: executes DSOD, decodes and returns the command.
  [[nodiscard]] uint64_t command(SiteId site);

  /// Command-end block.
  void command_end(SiteId site);

  /// Sets a local variable (native computation outside the DSOD language,
  /// e.g. a DMA-derived length).
  void set_local(LocalId id, uint64_t value);

  /// Loop watchdog: increments `counter`; at `limit` records a kRunawayLoop
  /// incident and returns true (the device loop must then bail out). This
  /// stands in for the unbounded CPU burn an infinite-loop bug causes in a
  /// real hypervisor (e.g. CVE-2016-7909).
  [[nodiscard]] bool watchdog(uint32_t& counter, uint32_t limit,
                              const char* note);

  [[nodiscard]] const DeviceProgram& program() const { return *program_; }
  [[nodiscard]] StateArena& arena() { return *arena_; }

 private:
  void exec_dsod(const SiteDesc& site,
                 const std::function<void(std::span<uint8_t>)>* fill);
  void enter_site(const SiteDesc& site);
  void snapshot_scalars();
  void diff_scalars();

  // A layout scalar field, resolved once for the observation diff.
  struct ScalarField {
    ParamId id;
    uint32_t offset;
    uint32_t size;
  };

  const DeviceProgram* program_;
  StateArena* arena_;
  std::function<void(const Incident&)> incident_fn_;
  TraceSink* trace_ = nullptr;
  StateObserver* observer_ = nullptr;
  std::map<FuncAddr, std::function<void()>> functions_;
  std::optional<IoAccess> io_;
  // The layout's scalar fields in field order, and their values at the
  // last snapshot/diff, for observer param-change diffing.
  std::vector<ScalarField> scalars_;
  std::vector<uint64_t> scalar_snapshot_;
};

/// RAII guard for one I/O interaction round.
class IoRound {
 public:
  IoRound(InstrumentationContext& ictx, const IoAccess& io) : ictx_(ictx) {
    ictx_.begin_round(io);
  }
  IoRound(const IoRound&) = delete;
  IoRound& operator=(const IoRound&) = delete;
  ~IoRound() { ictx_.end_round(); }

 private:
  InstrumentationContext& ictx_;
};

}  // namespace sedspec
