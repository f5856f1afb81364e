#include "checker/engine/engine.h"

#include <atomic>
#include <charconv>

#include "checker/engine/bytecode.h"
#include "checker/engine/interpreter.h"
#include "common/assert.h"
#include "vdev/device.h"

namespace sedspec::checker::engine {

namespace {
// Process-wide backend knob. Relaxed is enough: tests that flip it
// synchronize checker construction themselves, and a torn read is
// impossible for a one-byte enum.
std::atomic<EngineKind> g_default_engine{EngineKind::kBytecode};
}  // namespace

EngineKind default_engine() {
  return g_default_engine.load(std::memory_order_relaxed);
}

void set_default_engine(EngineKind kind) {
  SEDSPEC_REQUIRE_MSG(kind != EngineKind::kDefault,
                      "default engine must be a concrete backend");
  g_default_engine.store(kind, std::memory_order_relaxed);
}

EngineKind resolve_engine(EngineKind requested) {
  return requested == EngineKind::kDefault ? default_engine() : requested;
}

std::unique_ptr<CheckEngine> make_engine(const spec::EsCfg* cfg,
                                         Device* device,
                                         sedspec::StateArena* shadow,
                                         const CheckerConfig* config) {
  SEDSPEC_REQUIRE(cfg != nullptr && device != nullptr && shadow != nullptr &&
                  config != nullptr);
  switch (resolve_engine(config->engine)) {
    case EngineKind::kInterpreter:
      return std::make_unique<InterpreterEngine>(cfg, device, shadow, config);
    case EngineKind::kBytecode:
      return std::make_unique<BytecodeEngine>(cfg, device, shadow, config);
    case EngineKind::kDefault:
      break;  // unreachable: resolve_engine never returns kDefault
  }
  SEDSPEC_REQUIRE_MSG(false, "unresolvable engine kind");
  return nullptr;
}

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
