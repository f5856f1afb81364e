#include "statelog/statelog.h"

#include <sstream>

#include "common/assert.h"

namespace sedspec::statelog {

std::vector<DeviceStateLog::RoundView> DeviceStateLog::rounds() const {
  std::vector<RoundView> out;
  size_t begin = 0;
  bool open = false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].kind == EntryKind::kRoundStart) {
      SEDSPEC_REQUIRE_MSG(!open, "nested round in state log");
      begin = i;
      open = true;
    } else if (entries_[i].kind == EntryKind::kRoundEnd) {
      SEDSPEC_REQUIRE_MSG(open, "round end without start");
      out.push_back(RoundView{
          std::span<const LogEntry>(entries_.data() + begin, i - begin + 1)});
      open = false;
    }
  }
  SEDSPEC_REQUIRE_MSG(!open, "unterminated round in state log");
  return out;
}

void DeviceStateLog::merge(const DeviceStateLog& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
  round_starts_ += other.round_starts_;
}

std::vector<uint8_t> DeviceStateLog::serialize() const {
  sedspec::ByteWriter w;
  w.u32(0x5345444cu);  // "SEDL"
  w.u64(entries_.size());
  for (const LogEntry& e : entries_) {
    w.u8(static_cast<uint8_t>(e.kind));
    switch (e.kind) {
      case EntryKind::kRoundStart:
        w.u8(static_cast<uint8_t>(e.io.space));
        w.u64(e.io.addr);
        w.u8(e.io.size);
        w.u64(e.io.value);
        w.u8(e.io.is_write ? 1 : 0);
        break;
      case EntryKind::kSiteEnter:
        w.u16(e.site);
        w.u8(static_cast<uint8_t>(e.block_kind));
        break;
      case EntryKind::kBranch:
        w.u16(e.site);
        w.u8(e.taken ? 1 : 0);
        break;
      case EntryKind::kIndirect:
        w.u16(e.site);
        w.u64(e.target);
        break;
      case EntryKind::kCommand:
        w.u16(e.site);
        w.u64(e.cmd);
        break;
      case EntryKind::kCommandEnd:
        w.u16(e.site);
        break;
      case EntryKind::kParamChange:
        w.u16(e.param);
        w.u64(e.old_value);
        w.u64(e.new_value);
        break;
      case EntryKind::kRoundEnd:
        break;
    }
  }
  return w.take();
}

DeviceStateLog DeviceStateLog::deserialize(std::span<const uint8_t> bytes) {
  sedspec::ByteReader r(bytes);
  SEDSPEC_CHECK_DECODE(r.u32() == 0x5345444cu, "bad state log magic");
  const uint64_t n = r.u64();
  DeviceStateLog log;
  for (uint64_t i = 0; i < n; ++i) {
    LogEntry e;
    e.kind = static_cast<EntryKind>(r.u8());
    switch (e.kind) {
      case EntryKind::kRoundStart:
        e.io.space = static_cast<sedspec::IoSpace>(r.u8());
        e.io.addr = r.u64();
        e.io.size = r.u8();
        e.io.value = r.u64();
        e.io.is_write = r.u8() != 0;
        break;
      case EntryKind::kSiteEnter:
        e.site = r.u16();
        e.block_kind = static_cast<BlockKind>(r.u8());
        break;
      case EntryKind::kBranch:
        e.site = r.u16();
        e.taken = r.u8() != 0;
        break;
      case EntryKind::kIndirect:
        e.site = r.u16();
        e.target = r.u64();
        break;
      case EntryKind::kCommand:
        e.site = r.u16();
        e.cmd = r.u64();
        break;
      case EntryKind::kCommandEnd:
        e.site = r.u16();
        break;
      case EntryKind::kParamChange:
        e.param = r.u16();
        e.old_value = r.u64();
        e.new_value = r.u64();
        break;
      case EntryKind::kRoundEnd:
        break;
      default:
        SEDSPEC_CHECK_DECODE(false, "unknown state log entry kind");
    }
    log.append(std::move(e));
  }
  return log;
}

void LogRecorder::round_start(const IoAccess& io) {
  LogEntry e;
  e.kind = EntryKind::kRoundStart;
  e.io = io;
  log_.append(std::move(e));
}

void LogRecorder::site_enter(SiteId site, BlockKind kind) {
  if (filter_ != nullptr && kind == BlockKind::kPlain &&
      !filter_->contains(site)) {
    return;  // outside the observation plan
  }
  LogEntry e;
  e.kind = EntryKind::kSiteEnter;
  e.site = site;
  e.block_kind = kind;
  log_.append(std::move(e));
}

void LogRecorder::branch(SiteId site, bool taken) {
  LogEntry e;
  e.kind = EntryKind::kBranch;
  e.site = site;
  e.taken = taken;
  log_.append(std::move(e));
}

void LogRecorder::indirect(SiteId site, FuncAddr target) {
  LogEntry e;
  e.kind = EntryKind::kIndirect;
  e.site = site;
  e.target = target;
  log_.append(std::move(e));
}

void LogRecorder::command(SiteId site, uint64_t cmd) {
  LogEntry e;
  e.kind = EntryKind::kCommand;
  e.site = site;
  e.cmd = cmd;
  log_.append(std::move(e));
}

void LogRecorder::command_end(SiteId site) {
  LogEntry e;
  e.kind = EntryKind::kCommandEnd;
  e.site = site;
  log_.append(std::move(e));
}

void LogRecorder::param_change(ParamId param, uint64_t old_raw,
                               uint64_t new_raw) {
  LogEntry e;
  e.kind = EntryKind::kParamChange;
  e.param = param;
  e.old_value = old_raw;
  e.new_value = new_raw;
  log_.append(std::move(e));
}

void LogRecorder::round_end() {
  LogEntry e;
  e.kind = EntryKind::kRoundEnd;
  log_.append(std::move(e));
}

std::string to_text(const DeviceStateLog& log,
                    const sedspec::DeviceProgram& program) {
  std::ostringstream out;
  for (const LogEntry& e : log.entries()) {
    switch (e.kind) {
      case EntryKind::kRoundStart:
        out << "round " << (e.io.is_write ? "write" : "read") << " "
            << (e.io.space == sedspec::IoSpace::kPio ? "pio" : "mmio")
            << " 0x" << std::hex << e.io.addr << std::dec << " value 0x"
            << std::hex << e.io.value << std::dec << "\n";
        break;
      case EntryKind::kSiteEnter:
        out << "  site " << program.site(e.site).name << " ["
            << block_kind_name(e.block_kind) << "]\n";
        break;
      case EntryKind::kBranch:
        out << "  branch " << program.site(e.site).name << " -> "
            << (e.taken ? "taken" : "not-taken") << "\n";
        break;
      case EntryKind::kIndirect:
        out << "  indirect " << program.site(e.site).name << " -> 0x"
            << std::hex << e.target << std::dec << "\n";
        break;
      case EntryKind::kCommand:
        out << "  command 0x" << std::hex << e.cmd << std::dec << "\n";
        break;
      case EntryKind::kCommandEnd:
        out << "  command-end\n";
        break;
      case EntryKind::kParamChange:
        out << "  " << program.layout().field(e.param).name << ": "
            << e.old_value << " -> " << e.new_value << "\n";
        break;
      case EntryKind::kRoundEnd:
        out << "round-end\n";
        break;
    }
  }
  return out.str();
}

}  // namespace sedspec::statelog
