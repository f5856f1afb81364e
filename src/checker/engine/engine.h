// Pluggable check-engine backend API (DESIGN.md §12).
//
// EsChecker owns everything *around* a traversal round — containment,
// watchdog escalation, shadow resync, reporting, metrics, rollback — but
// the round itself (entry dispatch, block walk, DSOD simulation, NBTD
// transitions, violation production) is delegated to a CheckEngine:
//
//   InterpreterEngine — the original traversal, walking spec::EsCfg blocks
//                       and re-evaluating expr ASTs each round;
//   BytecodeEngine    — compile-once/execute-many: the spec is lowered at
//                       deploy time into a flat bytecode program executed
//                       by a threaded-code VM (checker/engine/bytecode.h).
//
// Both engines must be *observationally identical*: same CheckResult
// (violations in the same order with the same detail strings, same steps
// accounting), same CheckerFault escalations, same shadow-state mutations.
// The differential suite (tests/check_engine_test.cc) enforces this across
// all five devices, the CVE exploit matrix, and fuzzed specifications. To
// keep the detail strings from drifting, BOTH engines format violations
// through the detail::* helpers below — never inline the strings.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/checker.h"
#include "expr/eval.h"

namespace sedspec::checker::engine {

/// Per-round options resolved by EsChecker before delegating (today: the
/// fault-injection seam's termination-suppression flag).
struct RoundOptions {
  bool suppress_termination = false;
};

/// One check backend bound to (spec, device, shadow arena, config). The
/// engine owns per-round traversal state (visit counters, the active
/// command latch) but NOT the shadow arena or the config — those stay with
/// EsChecker so containment and redeploy logic remain engine-agnostic.
class CheckEngine {
 public:
  virtual ~CheckEngine() = default;

  /// Simulates one I/O round. Throws CheckerFault on watchdog trips (and
  /// other internal malfunctions); EsChecker's containment boundary
  /// resolves those. Locals have already been cleared by the caller.
  [[nodiscard]] virtual CheckResult check(const IoAccess& io,
                                          const RoundOptions& opts) = 0;

  /// The command-access latch (Algorithm 1's current command). Exposed so
  /// EsChecker can save/restore it around blocked rounds and reset it on
  /// resync — exactly as the pre-refactor checker manipulated its own
  /// active_cmd_ member.
  [[nodiscard]] virtual std::optional<uint64_t> active_command() const = 0;
  virtual void set_active_command(std::optional<uint64_t> cmd) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Builds the engine selected by `config->engine`. `cfg`/`device`/`shadow`/
/// `config` must outlive the engine. Both engines run validate_targets
/// (below) at attach, so a malformed spec throws std::logic_error here.
[[nodiscard]] std::unique_ptr<CheckEngine> make_engine(
    const spec::EsCfg* cfg, Device* device, sedspec::StateArena* shadow,
    const CheckerConfig* config);

/// Inline: both engines consult this per check round on the hot path.
[[nodiscard]] inline bool strategy_enabled(const CheckerConfig& config,
                                           Strategy s) {
  switch (s) {
    case Strategy::kParameter:
      return config.enable_parameter;
    case Strategy::kIndirectJump:
      return config.enable_indirect;
    case Strategy::kConditionalJump:
      return config.enable_conditional;
  }
  return false;
}

// Attach-time spec contract. Both engines derive their per-block data from
// these four helpers and nothing else, so they can differ only in how a
// round executes, never in what a spec means.

/// Specs arrive from untrusted persistence: every block site must be below
/// `site_count`, and every entry, plain successor and observed non-ending
/// direction (taken, not-taken, command dispatch) must name a block.
/// Throws std::logic_error otherwise, which deploy_serialized converts into
/// a kMalformed load rejection.
void validate_targets(const spec::EsCfg& cfg, size_t site_count);

/// Sync locals `block` reads, first occurrence wins, in this order: each
/// DSOD statement's value, index and count, then the guard, then cmd_expr.
[[nodiscard]] std::vector<sedspec::LocalId> block_syncs(
    const spec::EsCfg& cfg, const spec::EsBlock& block);

/// Per-round visit cap for `block`: max(64, 8 * max_visits_per_round).
[[nodiscard]] uint64_t visit_bound(const spec::EsBlock& block);

/// True when DSOD statement `s` is a buffer store or fill whose index (or
/// fill count) is derived from device state — the paper's §VI-A rule for
/// which buffer accesses get bounds-validated. Non-state indices are the
/// documented CVE-2015-7504 blind spot.
[[nodiscard]] bool bounds_checked(const spec::EsCfg& cfg,
                                  const sedspec::Stmt& s);

// Violation detail strings, shared verbatim by both engines.
namespace detail {

[[nodiscard]] std::string untrained_io(const IoAccess& io);
inline constexpr std::string_view kBudgetExceeded = "traversal budget exceeded";
[[nodiscard]] std::string visit_bound(std::string_view block_name,
                                      uint64_t visits, uint64_t trained_max);
[[nodiscard]] std::string cmd_access(std::string_view block_name,
                                     uint64_t cmd);
[[nodiscard]] std::string unresolved_sync(const sedspec::EvalDiag& diag);
inline constexpr std::string_view kGuardUnresolvedSync =
    "unresolved sync variable in guard";
[[nodiscard]] std::string guard_diag(const sedspec::EvalDiag& diag);
[[nodiscard]] std::string untrained_direction(std::string_view block_name,
                                              bool taken);
[[nodiscard]] std::string cmd_decode_diag(const sedspec::EvalDiag& diag);
[[nodiscard]] std::string untrained_cmd(std::string_view block_name,
                                        uint64_t cmd);
[[nodiscard]] std::string indirect_target(std::string_view block_name,
                                          uint64_t target);
[[nodiscard]] std::string watchdog_tripped(uint64_t steps);
[[nodiscard]] std::string unmapped_site(SiteId site);

}  // namespace detail

}  // namespace sedspec::checker::engine
