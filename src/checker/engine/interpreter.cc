#include "checker/engine/interpreter.h"

#include <algorithm>

#include "common/assert.h"
#include "vdev/device.h"

namespace sedspec::checker::engine {

using sedspec::EvalCtx;
using sedspec::EvalDiag;
using sedspec::Stmt;
using sedspec::StmtKind;
using spec::CondDir;
using spec::EsBlock;

InterpreterEngine::InterpreterEngine(const spec::EsCfg* cfg, Device* device,
                                     sedspec::StateArena* shadow,
                                     const CheckerConfig* config)
    : cfg_(cfg), device_(device), shadow_(shadow), config_(config) {
  build_aux();
}

void InterpreterEngine::build_aux() {
  const size_t site_count = device_->program().site_count();
  validate_targets(*cfg_, site_count);
  aux_.assign(site_count, BlockAux{});
  visits_.assign(site_count, 0);
  visit_epoch_.assign(site_count, 0);
  for (const auto& [site, block] : cfg_->blocks) {
    BlockAux& aux = aux_[site];
    aux.block = &block;
    aux.visit_bound = visit_bound(block);
    aux.syncs = block_syncs(*cfg_, block);
    for (const Stmt& s : block.dsod) {
      aux.stmt_bounds.push_back(bounds_checked(*cfg_, s) ? 1 : 0);
    }
  }
  entries_.assign(cfg_->entry_dispatch.begin(), cfg_->entry_dispatch.end());
}

void InterpreterEngine::resolve_syncs(const BlockAux& aux,
                                      const IoAccess& io) {
  // Sync points (paper §V-D): pause the simulation, read the variable's
  // current value from the device (against the shadow state, so loop-
  // carried locals resolve per encounter), then resume.
  for (sedspec::LocalId l : aux.syncs) {
    if (auto v = device_->resolve_sync(l, io, *shadow_); v.has_value()) {
      shadow_->set_local(l, *v);
    }
  }
}

struct InterpreterEngine::Traversal {
  const IoAccess* io = nullptr;
  std::vector<Violation> violations;
  SiteId current = sedspec::kInvalidSite;
  bool stop = false;  // successor unknown: traversal cannot continue
  uint64_t steps = 0;

  void add(Strategy s, SiteId site, std::string detail) {
    violations.push_back(Violation{s, site, std::move(detail)});
  }
};

void InterpreterEngine::exec_dsod(const BlockAux& aux, Traversal& t) {
  const EsBlock& block = *aux.block;
  for (size_t i = 0; i < block.dsod.size(); ++i) {
    const Stmt& s = block.dsod[i];
    EvalDiag diag;
    EvalCtx ctx;
    ctx.state = shadow_;
    ctx.io = t.io;
    ctx.checked = true;
    ctx.diag = &diag;
    switch (s.kind) {
      case StmtKind::kAssignParam: {
        const uint64_t v = eval_expr(*s.value, ctx);
        shadow_->set_param(s.param, v);
        break;
      }
      case StmtKind::kAssignLocal: {
        const uint64_t v = eval_expr(*s.value, ctx);
        shadow_->set_local(s.local, v);
        break;
      }
      case StmtKind::kBufStore: {
        const uint64_t idx = eval_expr(*s.index, ctx);
        const uint64_t val = eval_expr(*s.value, ctx);
        shadow_->buf_store(s.param, idx, val,
                           aux.stmt_bounds[i] != 0 ? &diag : nullptr);
        break;
      }
      case StmtKind::kBufFill: {
        const uint64_t idx = eval_expr(*s.index, ctx);
        const uint64_t count = eval_expr(*s.count, ctx);
        shadow_->buf_fill(s.param, idx, count,
                          aux.stmt_bounds[i] != 0 ? &diag : nullptr);
        break;
      }
    }
    if (!diag.any()) {
      continue;
    }
    if (diag.note.empty()) {
      diag.note = s.note;
    }
    if (diag.kind == EvalDiag::Kind::kMissingLocal) {
      // The simulation could not resolve a sync variable: the spec cannot
      // follow this path. Reported under the conditional-jump strategy.
      if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
        t.add(Strategy::kConditionalJump, block.site,
              detail::unresolved_sync(diag));
      }
    } else if (strategy_enabled(*config_, Strategy::kParameter)) {
      t.add(Strategy::kParameter, block.site, diag.describe());
    }
  }
}

CheckResult InterpreterEngine::check(const IoAccess& io,
                                     const RoundOptions& opts) {
  CheckResult result;
  Traversal t;
  t.io = &io;

  ++epoch_;

  // The watchdog must sit strictly above the policy budget, or it would
  // preempt the ordinary (violation-producing) budget check.
  const uint64_t watchdog =
      std::max(config_->watchdog_steps, config_->max_steps + 1);

  // Entry dispatch (paper §V-A: the entry block parses the target
  // address/port of the I/O request).
  const sedspec::IoKey key = sedspec::key_of(io);
  SiteId entry = sedspec::kInvalidSite;
  bool have_entry = false;
  for (const auto& [k, site] : entries_) {
    if (k == key) {
      entry = site;
      have_entry = true;
      break;
    }
  }
  if (!have_entry) {
    if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
      t.add(Strategy::kConditionalJump, sedspec::kInvalidSite,
            detail::untrained_io(io));
    }
    result.violations = std::move(t.violations);
    return result;
  }
  t.current = entry;

  while (!t.stop && t.current != sedspec::kInvalidSite) {
    ++t.steps;
    if (t.steps > watchdog) {
      // Hard backstop: the ordinary budget check below should have ended
      // this round long ago. Reaching here means the termination logic
      // itself is broken — escalate into the containment domain.
      throw CheckerFault(detail::watchdog_tripped(t.steps));
    }
    if (t.steps > config_->max_steps && !opts.suppress_termination) {
      if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
        t.add(Strategy::kConditionalJump, t.current,
              std::string(detail::kBudgetExceeded));
      }
      break;
    }
    const BlockAux& aux = aux_[t.current];
    if (aux.block == nullptr) {
      // Belt and braces under build_aux()'s load-time validation: never
      // dereference an unmapped site, contain it instead.
      throw CheckerFault(detail::unmapped_site(t.current));
    }
    const EsBlock& block = *aux.block;

    // Per-round visit bound (trained loop shape).
    if (visit_epoch_[t.current] != epoch_) {
      visit_epoch_[t.current] = epoch_;
      visits_[t.current] = 0;
    }
    if (++visits_[t.current] > aux.visit_bound &&
        !opts.suppress_termination) {
      if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
        t.add(Strategy::kConditionalJump, t.current,
              detail::visit_bound(block.name, visits_[t.current],
                                  block.max_visits_per_round));
      }
      break;
    }

    if (!aux.syncs.empty()) {
      resolve_syncs(aux, io);
    }

    // Command access control table.
    if (active_cmd_.has_value() &&
        strategy_enabled(*config_, Strategy::kConditionalJump)) {
      const auto cmd_it = cfg_->commands.find(*active_cmd_);
      if (cmd_it != cfg_->commands.end() &&
          !cmd_it->second.access.contains(t.current)) {
        t.add(Strategy::kConditionalJump, t.current,
              detail::cmd_access(block.name, *active_cmd_));
      }
    }

    exec_dsod(aux, t);

    // Transition.
    switch (block.kind) {
      case sedspec::BlockKind::kConditional: {
        if (block.merged) {
          t.current = block.has_succ ? block.succ : sedspec::kInvalidSite;
          break;
        }
        EvalDiag diag;
        EvalCtx ctx;
        ctx.state = shadow_;
        ctx.io = t.io;
        ctx.checked = true;
        ctx.diag = &diag;
        const bool taken = eval_expr(*block.guard, ctx) != 0;
        if (diag.any()) {
          if (diag.kind == EvalDiag::Kind::kMissingLocal) {
            if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
              t.add(Strategy::kConditionalJump, block.site,
                    std::string(detail::kGuardUnresolvedSync));
            }
          } else if (strategy_enabled(*config_, Strategy::kParameter)) {
            t.add(Strategy::kParameter, block.site,
                  detail::guard_diag(diag));
          }
        }
        const CondDir& dir = taken ? block.taken : block.not_taken;
        if (!dir.observed) {
          if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
            t.add(Strategy::kConditionalJump, block.site,
                  detail::untrained_direction(block.name, taken));
          }
          t.stop = true;
        } else if (dir.ends) {
          t.current = sedspec::kInvalidSite;
        } else {
          t.current = dir.succ;
        }
        break;
      }
      case sedspec::BlockKind::kCmdDecision: {
        EvalDiag diag;
        EvalCtx ctx;
        ctx.state = shadow_;
        ctx.io = t.io;
        ctx.checked = true;
        ctx.diag = &diag;
        const uint64_t cmd = eval_expr(*block.cmd_expr, ctx);
        if (diag.any() && diag.kind != EvalDiag::Kind::kMissingLocal &&
            strategy_enabled(*config_, Strategy::kParameter)) {
          t.add(Strategy::kParameter, block.site,
                detail::cmd_decode_diag(diag));
        }
        const auto disp = block.cmd_dispatch.find(cmd);
        if (disp == block.cmd_dispatch.end() || !disp->second.observed) {
          if (strategy_enabled(*config_, Strategy::kConditionalJump)) {
            t.add(Strategy::kConditionalJump, block.site,
                  detail::untrained_cmd(block.name, cmd));
          }
          t.stop = true;
          break;
        }
        active_cmd_ = cmd;
        t.current =
            disp->second.ends ? sedspec::kInvalidSite : disp->second.succ;
        break;
      }
      case sedspec::BlockKind::kIndirect: {
        const uint64_t target = shadow_->param(block.fp_param);
        if (strategy_enabled(*config_, Strategy::kIndirectJump) &&
            !block.fp_targets.contains(target)) {
          t.add(Strategy::kIndirectJump, block.site,
                detail::indirect_target(block.name, target));
        }
        t.current = block.has_succ ? block.succ : sedspec::kInvalidSite;
        if (!block.has_succ && !block.ends) {
          t.stop = true;
        }
        break;
      }
      case sedspec::BlockKind::kCmdEnd:
        active_cmd_.reset();
        t.current = block.has_succ ? block.succ : sedspec::kInvalidSite;
        break;
      case sedspec::BlockKind::kPlain:
        t.current = block.has_succ ? block.succ : sedspec::kInvalidSite;
        break;
    }
  }

  result.violations = std::move(t.violations);
  result.steps = t.steps;
  return result;
}

}  // namespace sedspec::checker::engine
