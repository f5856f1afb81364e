// ES-CFG construction — Algorithm 1 of the paper, plus control-flow
// reduction (§V-C) and data-dependency recovery application (§V-D).
//
// Inputs: the device-state-change logs (ds_logs), the device "source"
// (DeviceProgram, standing in for ed_sc), the CFG analyzer's parameter
// selection, and the dataflow recovery plan. Output: the ES-CFG and the
// command access control table (embedded in the EsCfg).
//
// Construction is observational: blocks and edges are added exactly as the
// logs traverse them. A BuildError signals an inconsistency that indicates
// a device instrumentation bug (e.g. the same plain block observed with two
// different successors — state-dependent branching that was not expressed
// through a conditional site).
#pragma once

#include <stdexcept>
#include <vector>

#include "cfg/analyzer.h"
#include "dataflow/dataflow.h"
#include "spec/es_cfg.h"
#include "statelog/statelog.h"

namespace sedspec::spec {

class BuildError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class EsCfgBuilder {
 public:
  EsCfgBuilder(const sedspec::DeviceProgram* program,
               cfg::ParamSelection selection,
               dataflow::RecoveryPlan recovery);

  /// Feeds one training log (may be called many times; logs merge).
  void add_log(const statelog::DeviceStateLog& log);

  /// Applies control-flow reduction, validates, and returns the final
  /// ES-CFG. The builder is spent afterwards.
  [[nodiscard]] EsCfg finalize();

  /// Convenience: full pipeline over a single merged log.
  [[nodiscard]] static EsCfg build(const sedspec::DeviceProgram& program,
                                   const cfg::ParamSelection& selection,
                                   const dataflow::RecoveryPlan& recovery,
                                   const statelog::DeviceStateLog& log);

 private:
  struct PendingEdge {
    enum class Kind : uint8_t { kNone, kSeq, kBranch, kCmd } kind = Kind::kNone;
    SiteId from = sedspec::kInvalidSite;
    bool taken = false;
    uint64_t cmd = 0;
  };

  EsBlock& ensure_block(SiteId site);
  /// The block of a site the log has entered; BuildError otherwise.
  EsBlock& entered_block(SiteId site);
  void connect(const PendingEdge& edge, SiteId to);
  void finish_round(const PendingEdge& edge);
  [[nodiscard]] StmtList filter_dsod(const sedspec::StmtList& dsod);

  void reduce(EsCfg* out);

  const sedspec::DeviceProgram* program_;
  cfg::ParamSelection selection_;
  dataflow::RecoveryPlan recovery_;
  EsCfg cfg_;
  // Each site's block in cfg_.blocks once the log has entered it (map
  // nodes never move), so Algorithm 1 looks a site up by index. Stale
  // after reduce() erases spliced blocks; add_log() is closed by then.
  std::vector<EsBlock*> block_at_;
  bool finalized_ = false;
};

}  // namespace sedspec::spec
