#include "spec/builder.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/log.h"

namespace sedspec::spec {

using sedspec::BlockKind;
using sedspec::SiteDesc;
using sedspec::Stmt;
using sedspec::StmtKind;
using statelog::EntryKind;
using statelog::LogEntry;

EsCfgBuilder::EsCfgBuilder(const sedspec::DeviceProgram* program,
                           cfg::ParamSelection selection,
                           dataflow::RecoveryPlan recovery)
    : program_(program),
      selection_(std::move(selection)),
      recovery_(std::move(recovery)) {
  cfg_.device_name = program->device_name();
  cfg_.params = selection_.param_ids();
  block_at_.resize(program->site_count(), nullptr);
}

StmtList EsCfgBuilder::filter_dsod(const StmtList& dsod) {
  StmtList out;
  for (const Stmt& s : dsod) {
    switch (s.kind) {
      case StmtKind::kAssignParam:
        if (!selection_.is_selected(s.param)) {
          continue;  // statement does not affect the device state (§V-B)
        }
        break;
      case StmtKind::kBufStore:
      case StmtKind::kBufFill:
        if (!selection_.is_selected(s.param)) {
          continue;
        }
        break;
      case StmtKind::kAssignLocal:
        break;  // locals are kept: they feed guards and index expressions
    }
    Stmt copy = s;
    copy.value = dataflow::rewrite(copy.value, recovery_);
    copy.index = dataflow::rewrite(copy.index, recovery_);
    copy.count = dataflow::rewrite(copy.count, recovery_);
    out.push_back(std::move(copy));
  }
  return out;
}

EsBlock& EsCfgBuilder::ensure_block(SiteId site) {
  if (site < block_at_.size() && block_at_[site] != nullptr) {
    return *block_at_[site];
  }
  const SiteDesc& desc = program_->site(site);
  EsBlock b;
  b.site = site;
  b.kind = desc.kind;
  b.name = desc.name;
  b.dsod = filter_dsod(desc.dsod);
  if (desc.guard != nullptr) {
    b.guard = dataflow::rewrite(desc.guard, recovery_);
    for (LocalId l : dataflow::referenced_locals(b.guard)) {
      if (recovery_.is_sync(l)) {
        cfg_.sync_locals.insert(l);
      }
    }
  }
  if (desc.cmd_expr != nullptr) {
    b.cmd_expr = dataflow::rewrite(desc.cmd_expr, recovery_);
    for (LocalId l : dataflow::referenced_locals(b.cmd_expr)) {
      if (recovery_.is_sync(l)) {
        cfg_.sync_locals.insert(l);
      }
    }
  }
  b.fp_param = desc.fp_param;
  for (const Stmt& s : b.dsod) {
    for (const ExprRef* e : {&s.value, &s.index, &s.count}) {
      for (LocalId l : dataflow::referenced_locals(*e)) {
        if (recovery_.is_sync(l)) {
          cfg_.sync_locals.insert(l);
        }
      }
    }
  }
  EsBlock& added = cfg_.blocks.emplace(site, std::move(b)).first->second;
  block_at_[site] = &added;
  return added;
}

EsBlock& EsCfgBuilder::entered_block(SiteId site) {
  if (site >= block_at_.size() || block_at_[site] == nullptr) {
    throw BuildError("log edge from site " + std::to_string(site) +
                     ", which the log never entered");
  }
  return *block_at_[site];
}

void EsCfgBuilder::connect(const PendingEdge& edge, SiteId to) {
  switch (edge.kind) {
    case PendingEdge::Kind::kNone:
      return;
    case PendingEdge::Kind::kSeq: {
      EsBlock& from = entered_block(edge.from);
      if (from.ends) {
        throw BuildError("block '" + from.name +
                         "' observed both ending a round and continuing");
      }
      if (from.has_succ && from.succ != to) {
        throw BuildError(
            "plain block '" + from.name +
            "' observed with two successors — uninstrumented branching");
      }
      from.has_succ = true;
      from.succ = to;
      return;
    }
    case PendingEdge::Kind::kBranch: {
      EsBlock& from = entered_block(edge.from);
      CondDir& dir = edge.taken ? from.taken : from.not_taken;
      if (dir.observed && dir.ends) {
        throw BuildError("conditional '" + from.name +
                         "' direction both ends and continues");
      }
      if (dir.observed && dir.succ != to) {
        throw BuildError("conditional '" + from.name +
                         "' direction observed with two successors");
      }
      dir.observed = true;
      dir.succ = to;
      return;
    }
    case PendingEdge::Kind::kCmd: {
      CondDir& d = entered_block(edge.from).cmd_dispatch[edge.cmd];
      if (d.observed && d.ends) {
        throw BuildError("command path both ends and continues");
      }
      if (d.observed && d.succ != to) {
        throw BuildError("command decision observed with two successors");
      }
      d.observed = true;
      d.succ = to;
      return;
    }
  }
}

void EsCfgBuilder::finish_round(const PendingEdge& edge) {
  switch (edge.kind) {
    case PendingEdge::Kind::kNone:
      return;
    case PendingEdge::Kind::kSeq: {
      EsBlock& from = entered_block(edge.from);
      if (from.has_succ) {
        throw BuildError("block '" + from.name +
                         "' observed both continuing and ending a round");
      }
      from.ends = true;
      return;
    }
    case PendingEdge::Kind::kBranch: {
      EsBlock& from = entered_block(edge.from);
      CondDir& dir = edge.taken ? from.taken : from.not_taken;
      if (dir.observed && !dir.ends) {
        throw BuildError("conditional '" + from.name +
                         "' direction both continues and ends");
      }
      dir.observed = true;
      dir.ends = true;
      return;
    }
    case PendingEdge::Kind::kCmd: {
      CondDir& d = entered_block(edge.from).cmd_dispatch[edge.cmd];
      if (d.observed && !d.ends) {
        throw BuildError("command path both continues and ends");
      }
      d.observed = true;
      d.ends = true;
      return;
    }
  }
}

void EsCfgBuilder::add_log(const statelog::DeviceStateLog& log) {
  SEDSPEC_REQUIRE(!finalized_);
  // The active command persists across I/O rounds (a device command spans
  // many register accesses), mirroring Algorithm 1's access_vec lifetime.
  CmdInfo* active_cmd = nullptr;
  // Visits per site in the current round, and the sites the round touched
  // (the only entries folded into max_visits_per_round and reset at its
  // end).
  std::vector<uint64_t> visits(program_->site_count(), 0);
  std::vector<SiteId> visited;

  PendingEdge pending;
  bool first_site = true;
  IoKey key;
  statelog::LogCursor cursor(log);
  LogEntry e;
  while (cursor.next(e)) {
    switch (e.kind) {
      case EntryKind::kRoundStart:
        ++cfg_.trained_rounds;
        pending = PendingEdge{};
        first_site = true;
        key = sedspec::key_of(e.io);
        break;
      case EntryKind::kSiteEnter: {
        ensure_block(e.site);
        if (first_site) {
          auto [it, inserted] = cfg_.entry_dispatch.try_emplace(key, e.site);
          if (!inserted && it->second != e.site) {
            throw BuildError("I/O key observed with two entry blocks");
          }
          first_site = false;
        } else {
          connect(pending, e.site);
        }
        pending = PendingEdge{PendingEdge::Kind::kSeq, e.site, false, 0};
        if (visits[e.site]++ == 0) {
          visited.push_back(e.site);
        }
        if (active_cmd != nullptr) {
          active_cmd->access.insert(e.site);
        }
        break;
      }
      case EntryKind::kBranch:
        pending = PendingEdge{PendingEdge::Kind::kBranch, e.site, e.taken, 0};
        break;
      case EntryKind::kIndirect:
        ensure_block(e.site).fp_targets.insert(e.target);
        break;
      case EntryKind::kCommand: {
        CmdInfo& ci = cfg_.commands[e.cmd];
        ++ci.observed;
        active_cmd = &ci;
        ci.access.insert(e.site);
        pending = PendingEdge{PendingEdge::Kind::kCmd, e.site, false, e.cmd};
        break;
      }
      case EntryKind::kCommandEnd:
        active_cmd = nullptr;
        break;
      case EntryKind::kParamChange:
        break;  // redundant with DSOD; kept in the log for fidelity
      case EntryKind::kRoundEnd:
        finish_round(pending);
        if (first_site) {
          // Round touched no instrumented site: record an "empty" entry.
          cfg_.entry_dispatch.try_emplace(key, sedspec::kInvalidSite);
        }
        for (SiteId site : visited) {
          EsBlock& b = *block_at_[site];
          b.max_visits_per_round = std::max(b.max_visits_per_round, visits[site]);
          visits[site] = 0;
        }
        visited.clear();
        break;
    }
  }
}

void EsCfgBuilder::reduce(EsCfg* out) {
  out->blocks_before_reduction = out->blocks.size();

  // 1. Merge conditionals whose two observed directions agree (§V-C: "we
  //    merge the two basic blocks and remove the NBTD").
  for (auto& [site, b] : out->blocks) {
    if (b.kind != BlockKind::kConditional) {
      continue;
    }
    if (!b.taken.observed || !b.not_taken.observed) {
      continue;
    }
    const bool same_end = b.taken.ends && b.not_taken.ends;
    const bool same_succ = !b.taken.ends && !b.not_taken.ends &&
                           b.taken.succ == b.not_taken.succ;
    if (same_end || same_succ) {
      b.merged = true;
      b.ends = same_end;
      b.has_succ = same_succ;
      b.succ = same_succ ? b.taken.succ : sedspec::kInvalidSite;
      ++out->merged_conditionals;
    }
  }

  // 2. Splice out empty plain blocks with a unique successor.
  std::map<SiteId, SiteId> forward;
  for (const auto& [site, b] : out->blocks) {
    if (b.kind == BlockKind::kPlain && b.dsod.empty() && b.has_succ &&
        !b.ends && b.succ != site) {
      forward[site] = b.succ;
    }
  }
  auto resolve = [&](SiteId site) {
    SiteId cur = site;
    // Follow splice chains with a step bound to defend against cycles.
    for (int i = 0; i < 64; ++i) {
      auto it = forward.find(cur);
      if (it == forward.end()) {
        return cur;
      }
      cur = it->second;
    }
    return cur;
  };
  if (!forward.empty()) {
    for (auto& [key, site] : out->entry_dispatch) {
      if (site != sedspec::kInvalidSite) {
        site = resolve(site);
      }
    }
    for (auto& [site, b] : out->blocks) {
      if (b.has_succ) {
        b.succ = resolve(b.succ);
      }
      if (b.taken.observed && !b.taken.ends) {
        b.taken.succ = resolve(b.taken.succ);
      }
      if (b.not_taken.observed && !b.not_taken.ends) {
        b.not_taken.succ = resolve(b.not_taken.succ);
      }
    }
    for (auto& [site, b] : out->blocks) {
      for (auto& [cmd, d] : b.cmd_dispatch) {
        if (d.observed && !d.ends) {
          d.succ = resolve(d.succ);
        }
      }
    }
    for (auto& [cmd, ci] : out->commands) {
      for (auto it = ci.access.begin(); it != ci.access.end();) {
        if (forward.contains(*it)) {
          it = ci.access.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& entry : forward) {
      out->blocks.erase(entry.first);
      ++out->spliced_blocks;
    }
  }
}

EsCfg EsCfgBuilder::finalize() {
  SEDSPEC_REQUIRE(!finalized_);
  finalized_ = true;
  reduce(&cfg_);

  // Validation: every referenced successor must exist.
  auto check_ref = [&](SiteId site, const char* what) {
    if (site != sedspec::kInvalidSite && !cfg_.blocks.contains(site)) {
      throw BuildError(std::string("dangling ") + what + " reference");
    }
  };
  for (const auto& [key, site] : cfg_.entry_dispatch) {
    check_ref(site, "entry");
  }
  for (const auto& [site, b] : cfg_.blocks) {
    if (b.has_succ) check_ref(b.succ, "successor");
    if (b.taken.observed && !b.taken.ends) check_ref(b.taken.succ, "taken");
    if (b.not_taken.observed && !b.not_taken.ends) {
      check_ref(b.not_taken.succ, "not-taken");
    }
    for (const auto& [cmd, d] : b.cmd_dispatch) {
      if (d.observed && !d.ends) check_ref(d.succ, "command successor");
    }
  }

  log_info("spec") << cfg_.device_name << ": ES-CFG with "
                   << cfg_.blocks.size() << " blocks ("
                   << cfg_.blocks_before_reduction << " before reduction), "
                   << cfg_.commands.size() << " commands, "
                   << cfg_.sync_locals.size() << " sync locals, "
                   << cfg_.trained_rounds << " rounds";
  return std::move(cfg_);
}

EsCfg EsCfgBuilder::build(const sedspec::DeviceProgram& program,
                          const cfg::ParamSelection& selection,
                          const dataflow::RecoveryPlan& recovery,
                          const statelog::DeviceStateLog& log) {
  EsCfgBuilder builder(&program, selection, recovery);
  builder.add_log(log);
  return builder.finalize();
}

}  // namespace sedspec::spec
