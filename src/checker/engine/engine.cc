#include "checker/engine/engine.h"

#include <algorithm>
#include <charconv>

#include "checker/engine/bytecode.h"
#include "checker/engine/interpreter.h"
#include "common/assert.h"
#include "vdev/device.h"

namespace sedspec::checker::engine {

std::unique_ptr<CheckEngine> make_engine(const spec::EsCfg* cfg,
                                         Device* device,
                                         sedspec::StateArena* shadow,
                                         const CheckerConfig* config) {
  SEDSPEC_REQUIRE(cfg != nullptr && device != nullptr && shadow != nullptr &&
                  config != nullptr);
  if (config->engine == EngineKind::kInterpreter) {
    return std::make_unique<InterpreterEngine>(cfg, device, shadow, config);
  }
  return std::make_unique<BytecodeEngine>(cfg, device, shadow, config);
}

namespace {

bool index_is_state_derived(const spec::EsCfg& cfg, const sedspec::ExprRef& e) {
  if (e == nullptr) {
    return false;
  }
  bool has_param = false;
  bool has_sync_local = false;
  sedspec::visit(*e, [&](const sedspec::Expr& n) {
    if (n.kind == sedspec::ExprKind::kParam ||
        n.kind == sedspec::ExprKind::kBufLoad) {
      if (cfg.is_param(n.param)) {
        has_param = true;
      }
    } else if (n.kind == sedspec::ExprKind::kLocal) {
      if (cfg.sync_locals.contains(n.local)) {
        has_sync_local = true;
      }
    }
  });
  return has_param && !has_sync_local;
}

}  // namespace

void validate_targets(const spec::EsCfg& cfg, size_t site_count) {
  const auto require_block = [&](SiteId site) {
    SEDSPEC_REQUIRE(site < site_count && cfg.blocks.contains(site));
  };
  const auto require_dir = [&](const spec::CondDir& d) {
    if (d.observed && !d.ends) {
      require_block(d.succ);
    }
  };
  for (const auto& [key, entry] : cfg.entry_dispatch) {
    if (entry != sedspec::kInvalidSite) {
      require_block(entry);
    }
  }
  for (const auto& [site, block] : cfg.blocks) {
    SEDSPEC_REQUIRE(site < site_count);
    if (block.has_succ && !block.ends) {
      require_block(block.succ);
    }
    require_dir(block.taken);
    require_dir(block.not_taken);
    for (const auto& [cmd, dir] : block.cmd_dispatch) {
      require_dir(dir);
    }
  }
}

std::vector<sedspec::LocalId> block_syncs(const spec::EsCfg& cfg,
                                          const spec::EsBlock& block) {
  std::vector<sedspec::LocalId> syncs;
  const auto collect = [&](const sedspec::ExprRef& e) {
    if (e == nullptr) {
      return;
    }
    sedspec::visit(*e, [&](const sedspec::Expr& n) {
      if (n.kind == sedspec::ExprKind::kLocal &&
          cfg.sync_locals.contains(n.local) &&
          std::find(syncs.begin(), syncs.end(), n.local) == syncs.end()) {
        syncs.push_back(n.local);
      }
    });
  };
  for (const sedspec::Stmt& s : block.dsod) {
    collect(s.value);
    collect(s.index);
    collect(s.count);
  }
  collect(block.guard);
  collect(block.cmd_expr);
  return syncs;
}

uint64_t visit_bound(const spec::EsBlock& block) {
  return std::max<uint64_t>(64, block.max_visits_per_round * 8);
}

bool bounds_checked(const spec::EsCfg& cfg, const sedspec::Stmt& s) {
  switch (s.kind) {
    case sedspec::StmtKind::kBufStore:
      return index_is_state_derived(cfg, s.index);
    case sedspec::StmtKind::kBufFill:
      return index_is_state_derived(cfg, s.index) ||
             index_is_state_derived(cfg, s.count);
    default:
      return false;
  }
}

namespace detail {

namespace {

/// Appends `v` in `base` (16: lowercase, no prefix, no padding) — the same
/// digits `std::ostream << std::hex/std::dec` would print, without a stream.
void append_num(std::string& out, uint64_t v, int base = 10) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, base);
  out.append(buf, res.ptr);
}

}  // namespace

std::string untrained_io(const IoAccess& io) {
  std::string out = "untrained I/O access: ";
  out += io.space == sedspec::IoSpace::kPio ? "pio 0x" : "mmio 0x";
  append_num(out, io.addr, 16);
  out += io.is_write ? " write" : " read";
  return out;
}

std::string visit_bound(std::string_view block_name, uint64_t visits,
                        uint64_t trained_max) {
  std::string out = "block '";
  out += block_name;
  out += "' visited ";
  append_num(out, visits);
  out += " times in one round (trained max ";
  append_num(out, trained_max);
  out += ')';
  return out;
}

std::string cmd_access(std::string_view block_name, uint64_t cmd) {
  std::string out = "block '";
  out += block_name;
  out += "' not accessible under command 0x";
  append_num(out, cmd, 16);
  return out;
}

std::string unresolved_sync(const sedspec::EvalDiag& diag) {
  return "unresolved sync variable: " + diag.describe();
}

std::string guard_diag(const sedspec::EvalDiag& diag) {
  return "in guard: " + diag.describe();
}

std::string untrained_direction(std::string_view block_name, bool taken) {
  std::string out = "untrained ";
  out += taken ? "taken" : "not-taken";
  out += " direction at '";
  out += block_name;
  out += '\'';
  return out;
}

std::string cmd_decode_diag(const sedspec::EvalDiag& diag) {
  return "in command decode: " + diag.describe();
}

std::string untrained_cmd(std::string_view block_name, uint64_t cmd) {
  std::string out = "untrained command 0x";
  append_num(out, cmd, 16);
  out += " at '";
  out += block_name;
  out += '\'';
  return out;
}

std::string indirect_target(std::string_view block_name, uint64_t target) {
  std::string out = "indirect call at '";
  out += block_name;
  out += "' targets 0x";
  append_num(out, target, 16);
  out += ", not a trained legitimate function";
  return out;
}

std::string watchdog_tripped(uint64_t steps) {
  std::string out = "traversal watchdog tripped after ";
  append_num(out, steps);
  out += " steps";
  return out;
}

std::string unmapped_site(SiteId site) {
  std::string out = "traversal reached unmapped site ";
  append_num(out, site);
  return out;
}

}  // namespace detail

}  // namespace sedspec::checker::engine
