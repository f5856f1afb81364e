// Device-state-change log (paper §IV-B / Fig. 1 ①).
//
// During the data-collection phase the instrumented device records, per I/O
// round: the I/O access itself, every site entered (with its block-type
// auxiliary information), conditional directions, indirect targets, decoded
// commands and command ends, and device-state parameter changes. Algorithm 1
// consumes these logs — "each log ... contains the complete control flow
// data, device state change data, and auxiliary information" — together
// with the device source to build the ES-CFG.
//
// The log has a binary wire format (round-trippable, so collection and
// construction can run in separate processes, as in the paper's offline
// pipeline) and an in-memory round iterator.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "expr/io.h"
#include "program/program.h"
#include "vdev/instr.h"

namespace sedspec::statelog {

using sedspec::BlockKind;
using sedspec::FuncAddr;
using sedspec::IoAccess;
using sedspec::ParamId;
using sedspec::SiteId;

enum class EntryKind : uint8_t {
  kRoundStart = 1,
  kSiteEnter,
  kBranch,
  kIndirect,
  kCommand,
  kCommandEnd,
  kParamChange,
  kRoundEnd,
};

struct LogEntry {
  EntryKind kind = EntryKind::kRoundStart;
  IoAccess io;                    // kRoundStart
  SiteId site = 0;                // kSiteEnter/kBranch/kIndirect/kCommand/kCommandEnd
  BlockKind block_kind = BlockKind::kPlain;  // kSiteEnter
  bool taken = false;             // kBranch
  FuncAddr target = 0;            // kIndirect
  uint64_t cmd = 0;               // kCommand
  ParamId param = 0;              // kParamChange
  uint64_t old_value = 0;         // kParamChange
  uint64_t new_value = 0;         // kParamChange

  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// One training run's log: a flat entry sequence plus round boundaries.
class DeviceStateLog {
 public:
  void append(LogEntry entry) {
    round_starts_ += entry.kind == EntryKind::kRoundStart ? 1 : 0;
    entries_.push_back(std::move(entry));
  }

  [[nodiscard]] const std::vector<LogEntry>& entries() const {
    return entries_;
  }
  /// Number of kRoundStart entries, kept as entries are appended (O(1)).
  [[nodiscard]] size_t round_count() const { return round_starts_; }

  /// Views of [begin, end) entry index ranges, one per round.
  struct RoundView {
    std::span<const LogEntry> entries;
    [[nodiscard]] const IoAccess& io() const { return entries.front().io; }
  };
  [[nodiscard]] std::vector<RoundView> rounds() const;

  /// Appends another log's entries (merging training sessions).
  void merge(const DeviceStateLog& other);

  [[nodiscard]] std::vector<uint8_t> serialize() const;
  [[nodiscard]] static DeviceStateLog deserialize(
      std::span<const uint8_t> bytes);

 private:
  std::vector<LogEntry> entries_;
  size_t round_starts_ = 0;
};

/// The StateObserver a device's instrumentation context writes into while
/// observation points are armed.
class LogRecorder final : public sedspec::StateObserver {
 public:
  /// Restricts recording to the observation plan: plain sites outside
  /// `filter` are not logged (the paper only instruments selected
  /// observation points). Non-plain sites (control-flow-relevant) are
  /// always recorded. Pass nullptr to record everything.
  void set_site_filter(const std::set<SiteId>* filter) { filter_ = filter; }

  // StateObserver -----------------------------------------------------------
  void round_start(const IoAccess& io) override;
  void site_enter(SiteId site, BlockKind kind) override;
  void branch(SiteId site, bool taken) override;
  void indirect(SiteId site, FuncAddr target) override;
  void command(SiteId site, uint64_t cmd) override;
  void command_end(SiteId site) override;
  void param_change(ParamId param, uint64_t old_raw, uint64_t new_raw) override;
  void round_end() override;

  [[nodiscard]] DeviceStateLog take() { return std::move(log_); }
  [[nodiscard]] const DeviceStateLog& log() const { return log_; }

 private:
  DeviceStateLog log_;
  const std::set<SiteId>* filter_ = nullptr;
};

/// Human-readable dump (spec-inspector example, debugging).
std::string to_text(const DeviceStateLog& log,
                    const sedspec::DeviceProgram& program);

}  // namespace sedspec::statelog
