// InterpreterEngine: the original ES-Checker traversal, extracted verbatim
// from EsChecker behind the CheckEngine interface. It walks spec::EsCfg
// blocks and re-evaluates expr/stmt ASTs on every round — the reference
// semantics the BytecodeEngine must reproduce bit-for-bit (same violations,
// same detail strings, same shadow mutations, same CheckerFault
// escalations). Treat any change here as a change to the differential
// contract in tests/check_engine_test.cc.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "checker/engine/engine.h"
#include "spec/es_cfg.h"

namespace sedspec::checker::engine {

class InterpreterEngine final : public CheckEngine {
 public:
  /// Attaches through the shared contract in engine.h: validate_targets
  /// throws std::logic_error on a malformed spec.
  InterpreterEngine(const spec::EsCfg* cfg, Device* device,
                    sedspec::StateArena* shadow, const CheckerConfig* config);

  [[nodiscard]] CheckResult check(const IoAccess& io,
                                  const RoundOptions& opts) override;

  [[nodiscard]] std::optional<uint64_t> active_command() const override {
    return active_cmd_;
  }
  void set_active_command(std::optional<uint64_t> cmd) override {
    active_cmd_ = cmd;
  }

  [[nodiscard]] std::string_view name() const override {
    return "interpreter";
  }

 private:
  /// Per-block derived data resolved once at attach from the engine.h
  /// contract, so the per-round loop touches only flat vectors.
  struct BlockAux {
    const spec::EsBlock* block = nullptr;
    std::vector<sedspec::LocalId> syncs;  // sync locals read by this block
    std::vector<uint8_t> stmt_bounds;     // 1 = bounds-check this DSOD stmt
    uint64_t visit_bound = 0;             // slack-adjusted per-round cap
  };

  struct Traversal;

  void build_aux();
  void resolve_syncs(const BlockAux& aux, const IoAccess& io);
  void exec_dsod(const BlockAux& aux, Traversal& t);

  const spec::EsCfg* cfg_;
  Device* device_;
  sedspec::StateArena* shadow_;
  const CheckerConfig* config_;

  std::vector<BlockAux> aux_;  // indexed by SiteId
  std::vector<std::pair<sedspec::IoKey, SiteId>> entries_;
  // Per-round visit counters, epoch-reset so clearing is O(1) per round.
  std::vector<uint64_t> visits_;
  std::vector<uint64_t> visit_epoch_;
  uint64_t epoch_ = 0;
  std::optional<uint64_t> active_cmd_;
};

}  // namespace sedspec::checker::engine
