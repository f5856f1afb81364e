#include "vdev/instr.h"

#include "common/assert.h"
#include "common/log.h"

namespace sedspec {

InstrumentationContext::InstrumentationContext(
    const DeviceProgram* program, StateArena* arena,
    std::function<void(const Incident&)> incident_fn)
    : program_(program),
      arena_(arena),
      incident_fn_(std::move(incident_fn)) {
  SEDSPEC_REQUIRE(program != nullptr && arena != nullptr);
  const StateLayout& layout = program->layout();
  for (size_t i = 0; i < layout.field_count(); ++i) {
    const auto id = static_cast<ParamId>(i);
    const FieldDesc& f = layout.field(id);
    if (!f.is_buffer()) {
      SEDSPEC_REQUIRE(StateArena::is_scalar_width(f.size));
      scalars_.push_back(ScalarField{id, f.offset, f.size});
    }
  }
  scalar_snapshot_.resize(scalars_.size());
}

void InstrumentationContext::bind_function(FuncAddr addr,
                                           std::function<void()> fn) {
  SEDSPEC_REQUIRE_MSG(program_->is_function(addr),
                      "binding a function address unknown to the program");
  functions_[addr] = std::move(fn);
}

void InstrumentationContext::begin_round(const IoAccess& io) {
  SEDSPEC_REQUIRE_MSG(!io_.has_value(), "nested I/O round");
  io_ = io;
  arena_->clear_locals();
  if (trace_ != nullptr) {
    trace_->pge(program_->code_base());
  }
  if (observer_ != nullptr) {
    observer_->round_start(io);
    snapshot_scalars();
  }
}

void InstrumentationContext::end_round() {
  SEDSPEC_REQUIRE(io_.has_value());
  if (trace_ != nullptr) {
    trace_->pgd();
  }
  if (observer_ != nullptr) {
    observer_->round_end();
  }
  io_.reset();
}

const IoAccess& InstrumentationContext::io() const {
  SEDSPEC_REQUIRE_MSG(io_.has_value(), "io() outside a round");
  return *io_;
}

void InstrumentationContext::snapshot_scalars() {
  for (size_t i = 0; i < scalars_.size(); ++i) {
    scalar_snapshot_[i] =
        arena_->load_scalar(scalars_[i].offset, scalars_[i].size);
  }
}

void InstrumentationContext::diff_scalars() {
  for (size_t i = 0; i < scalars_.size(); ++i) {
    const ScalarField& f = scalars_[i];
    const uint64_t now = arena_->load_scalar(f.offset, f.size);
    if (now != scalar_snapshot_[i]) {
      observer_->param_change(f.id, scalar_snapshot_[i], now);
      scalar_snapshot_[i] = now;
    }
  }
}

void InstrumentationContext::exec_dsod(
    const SiteDesc& site,
    const std::function<void(std::span<uint8_t>)>* fill) {
  EvalCtx ctx;
  ctx.state = arena_;
  ctx.io = io_.has_value() ? &*io_ : nullptr;
  ctx.checked = false;
  ctx.diag = nullptr;
  for (const Stmt& s : site.dsod) {
    if (s.kind == StmtKind::kBufFill) {
      // Validate/clamp through the arena, then hand the real region to the
      // device's data source.
      const uint64_t idx = eval_expr(*s.index, ctx);
      const uint64_t count = eval_expr(*s.count, ctx);
      arena_->buf_fill(s.param, idx, count, nullptr);
      if (fill != nullptr && *fill) {
        (*fill)(arena_->fill_region(s.param, idx, count));
      }
    } else {
      exec_stmt(s, ctx);
    }
  }
  if (observer_ != nullptr) {
    diff_scalars();
  }
}

void InstrumentationContext::enter_site(const SiteDesc& site) {
  SEDSPEC_REQUIRE_MSG(io_.has_value(),
                      "site executed outside an I/O round: " + site.name);
  if (trace_ != nullptr) {
    trace_->tip(site.addr);
  }
  if (observer_ != nullptr) {
    observer_->site_enter(site.id, site.kind);
  }
}

void InstrumentationContext::block(SiteId id) {
  const SiteDesc& site = program_->site(id);
  enter_site(site);
  exec_dsod(site, nullptr);
}

void InstrumentationContext::block(
    SiteId id, const std::function<void(std::span<uint8_t>)>& fill) {
  const SiteDesc& site = program_->site(id);
  enter_site(site);
  exec_dsod(site, &fill);
}

bool InstrumentationContext::branch(SiteId id) {
  const SiteDesc& site = program_->site(id);
  SEDSPEC_REQUIRE_MSG(site.kind == BlockKind::kConditional,
                      "branch() on non-conditional site " + site.name);
  enter_site(site);
  exec_dsod(site, nullptr);
  EvalCtx ctx;
  ctx.state = arena_;
  ctx.io = &*io_;
  const bool taken = eval_expr(*site.guard, ctx) != 0;
  if (trace_ != nullptr) {
    trace_->tnt(taken);
  }
  if (observer_ != nullptr) {
    observer_->branch(id, taken);
  }
  return taken;
}

void InstrumentationContext::indirect(SiteId id) {
  const SiteDesc& site = program_->site(id);
  SEDSPEC_REQUIRE_MSG(site.kind == BlockKind::kIndirect,
                      "indirect() on non-indirect site " + site.name);
  enter_site(site);
  exec_dsod(site, nullptr);
  const FuncAddr target = arena_->param(site.fp_param);
  if (trace_ != nullptr) {
    trace_->tip(target);
  }
  if (observer_ != nullptr) {
    observer_->indirect(id, target);
  }
  auto it = functions_.find(target);
  if (it == functions_.end()) {
    // A corrupted function pointer: in real QEMU this is the moment an
    // attacker gains control. Record ground truth and skip the call.
    if (incident_fn_) {
      incident_fn_(Incident{IncidentKind::kHijackedCall, site.fp_param, target,
                            "indirect call at " + site.name});
    }
    return;
  }
  it->second();
}

uint64_t InstrumentationContext::command(SiteId id) {
  const SiteDesc& site = program_->site(id);
  SEDSPEC_REQUIRE_MSG(site.kind == BlockKind::kCmdDecision,
                      "command() on non-cmd-decision site " + site.name);
  enter_site(site);
  exec_dsod(site, nullptr);
  EvalCtx ctx;
  ctx.state = arena_;
  ctx.io = &*io_;
  const uint64_t cmd = eval_expr(*site.cmd_expr, ctx);
  if (observer_ != nullptr) {
    observer_->command(id, cmd);
  }
  return cmd;
}

void InstrumentationContext::command_end(SiteId id) {
  const SiteDesc& site = program_->site(id);
  SEDSPEC_REQUIRE_MSG(site.kind == BlockKind::kCmdEnd,
                      "command_end() on non-cmd-end site " + site.name);
  enter_site(site);
  exec_dsod(site, nullptr);
  if (observer_ != nullptr) {
    observer_->command_end(id);
  }
}

void InstrumentationContext::set_local(LocalId id, uint64_t value) {
  arena_->set_local(id, value);
}

bool InstrumentationContext::watchdog(uint32_t& counter, uint32_t limit,
                                      const char* note) {
  if (++counter < limit) {
    return false;
  }
  if (incident_fn_) {
    incident_fn_(
        Incident{IncidentKind::kRunawayLoop, kInvalidParam, counter, note});
  }
  log_warn("vdev") << "watchdog tripped (" << note << ") after " << counter
                   << " iterations";
  return true;
}

}  // namespace sedspec
