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
// The log is held in its binary wire format (round-trippable, so
// collection and construction can run in separate processes, as in the
// paper's offline pipeline) and read back through a decoding cursor. A
// training run logs up to ~190k entries; encoded they take about a twelfth
// of the memory a vector of decoded entries would.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

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

/// One decoded log entry. Logs are stored encoded (see DeviceStateLog); a
/// LogEntry exists only while a LogCursor hands it out.
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

/// One training run's log, kept in its wire encoding: a kind byte, then
/// the kind's fields at fixed widths, little-endian.
///
///   kRoundStart   u8 space, u64 addr, u8 size, u64 value, u8 is_write
///   kSiteEnter    u16 site, u8 block kind
///   kBranch       u16 site, u8 taken
///   kIndirect     u16 site, u64 target
///   kCommand      u16 site, u64 cmd
///   kCommandEnd   u16 site
///   kParamChange  u16 param, u64 old, u64 new
///   kRoundEnd     -
///
/// The persisted form is the magic "SEDL", the u64 entry count, then these
/// bytes, so serialize() is a header plus a copy and merge() an append.
/// A LogRecorder writes the entries; a LogCursor reads them back.
class DeviceStateLog {
 public:
  /// Number of kRoundStart entries, kept as entries are appended (O(1)).
  [[nodiscard]] size_t round_count() const { return round_starts_; }
  [[nodiscard]] uint64_t entry_count() const { return entry_count_; }

  /// Appends another log's entries (merging training sessions).
  void merge(const DeviceStateLog& other);

  [[nodiscard]] std::vector<uint8_t> serialize() const;
  /// Validates every entry's encoding (DecodeError on a bad magic, an
  /// unknown kind or a truncated entry) and keeps the bytes. Bytes after
  /// the header's entry count are ignored.
  [[nodiscard]] static DeviceStateLog deserialize(
      std::span<const uint8_t> bytes);

 private:
  friend class LogCursor;
  friend class LogRecorder;

  /// Encodes one entry: the kind byte, then each field at its type's width.
  template <typename... Fields>
  void put(EntryKind kind, Fields... fields);

  std::vector<uint8_t> bytes_;
  uint64_t entry_count_ = 0;
  size_t round_starts_ = 0;
};

/// Decodes a log's entries in order, one per next(), checking round
/// structure as it goes: a round nested in another, a round end without a
/// start, or a last round left open throws std::logic_error. Entries
/// outside any round are skipped. Each round reads kRoundStart (carrying
/// the round's I/O access) first and kRoundEnd last. The log must outlive
/// the cursor and not grow (merge, recording) while it is read.
class LogCursor {
 public:
  explicit LogCursor(const DeviceStateLog& log)
      : at_(log.bytes_.data()), end_(at_ + log.bytes_.size()) {}

  /// Decodes the next entry into `out`; false once the log is exhausted.
  [[nodiscard]] bool next(LogEntry& out);

 private:
  // The log's bytes hold whole, valid entries: the recorder writes only
  // those, and deserialize() admits only those.
  const uint8_t* at_;
  const uint8_t* end_;
  bool in_round_ = false;
};

/// The StateObserver a device's instrumentation context writes into while
/// observation points are armed, and the log's one writer: each callback
/// encodes its entry straight into the log.
class LogRecorder final : public sedspec::StateObserver {
 public:
  /// Restricts recording to the observation plan: plain sites outside
  /// `filter` are not logged (the paper only instruments selected
  /// observation points). Non-plain sites (control-flow-relevant) are
  /// always recorded. Pass nullptr to record everything. The plan is
  /// copied into a dense bitmap; `filter` need not outlive the call.
  void set_site_filter(const std::set<SiteId>* filter);

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
  bool filtered_ = false;
  std::vector<bool> planned_;  // indexed by SiteId, when filtered_
};

/// Human-readable dump (spec-inspector example, debugging): one line per
/// entry, rounds unindented and their entries indented.
std::string to_text(const LogEntry& entry,
                    const sedspec::DeviceProgram& program);
std::string to_text(const DeviceStateLog& log,
                    const sedspec::DeviceProgram& program);

}  // namespace sedspec::statelog
