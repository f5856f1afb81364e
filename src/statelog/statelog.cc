#include "statelog/statelog.h"

#include <cstring>
#include <iterator>
#include <sstream>

#include "common/assert.h"
#include "common/bytes.h"

namespace sedspec::statelog {

namespace {

constexpr uint32_t kMagic = 0x5345444cu;  // "SEDL"
constexpr size_t kHeaderSize = 4 + 8;     // magic, entry count

/// Encoded size of each entry kind, kind byte included, indexed by the
/// kind byte; 0 marks a byte that is no kind.
constexpr uint8_t kEntrySize[] = {
    0,
    1 + 1 + 8 + 1 + 8 + 1,  // kRoundStart
    1 + 2 + 1,              // kSiteEnter
    1 + 2 + 1,              // kBranch
    1 + 2 + 8,              // kIndirect
    1 + 2 + 8,              // kCommand
    1 + 2,                  // kCommandEnd
    1 + 2 + 8 + 8,          // kParamChange
    1,                      // kRoundEnd
};

[[nodiscard]] size_t entry_size(uint8_t kind) {
  return kind < std::size(kEntrySize) ? kEntrySize[kind] : 0;
}

template <typename T>
[[nodiscard]] T load(const uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof v);  // little-endian host
  return v;
}

/// Decodes the entry at `p`, whose entry_size() bytes are in the log.
void decode_entry(const uint8_t* p, LogEntry& e) {
  // Field by field rather than `e = LogEntry{}`, which compiles to a
  // `rep stos` as costly as the rest of the decode.
  e.kind = static_cast<EntryKind>(p[0]);
  e.io = IoAccess{};
  e.site = 0;
  e.block_kind = BlockKind::kPlain;
  e.taken = false;
  e.target = 0;
  e.cmd = 0;
  e.param = 0;
  e.old_value = 0;
  e.new_value = 0;
  switch (e.kind) {
    case EntryKind::kRoundStart:
      e.io.space = static_cast<sedspec::IoSpace>(p[1]);
      e.io.addr = load<uint64_t>(p + 2);
      e.io.size = p[10];
      e.io.value = load<uint64_t>(p + 11);
      e.io.is_write = p[19] != 0;
      return;
    case EntryKind::kSiteEnter:
      e.site = load<SiteId>(p + 1);
      e.block_kind = static_cast<BlockKind>(p[3]);
      return;
    case EntryKind::kBranch:
      e.site = load<SiteId>(p + 1);
      e.taken = p[3] != 0;
      return;
    case EntryKind::kIndirect:
      e.site = load<SiteId>(p + 1);
      e.target = load<FuncAddr>(p + 3);
      return;
    case EntryKind::kCommand:
      e.site = load<SiteId>(p + 1);
      e.cmd = load<uint64_t>(p + 3);
      return;
    case EntryKind::kCommandEnd:
      e.site = load<SiteId>(p + 1);
      return;
    case EntryKind::kParamChange:
      e.param = load<ParamId>(p + 1);
      e.old_value = load<uint64_t>(p + 3);
      e.new_value = load<uint64_t>(p + 11);
      return;
    case EntryKind::kRoundEnd:
      return;
  }
}

}  // namespace

// The widths put() writes are the field types' own.
static_assert(sizeof(SiteId) == 2 && sizeof(ParamId) == 2 &&
              sizeof(FuncAddr) == 8 && sizeof(IoAccess::addr) == 8 &&
              sizeof(IoAccess::size) == 1 && sizeof(IoAccess::value) == 8);

template <typename... Fields>
void DeviceStateLog::put(EntryKind kind, Fields... fields) {
  uint8_t rec[1 + (sizeof(Fields) + ... + 0)];
  rec[0] = static_cast<uint8_t>(kind);
  size_t at = 1;
  // Little-endian host: each field's bytes are its wire encoding.
  ((std::memcpy(rec + at, &fields, sizeof fields), at += sizeof fields), ...);
  bytes_.insert(bytes_.end(), rec, rec + sizeof rec);
  ++entry_count_;
  round_starts_ += kind == EntryKind::kRoundStart ? 1 : 0;
}

void DeviceStateLog::merge(const DeviceStateLog& other) {
  bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
  entry_count_ += other.entry_count_;
  round_starts_ += other.round_starts_;
}

std::vector<uint8_t> DeviceStateLog::serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + bytes_.size());
  out.resize(kHeaderSize);
  std::memcpy(out.data(), &kMagic, sizeof kMagic);
  std::memcpy(out.data() + sizeof kMagic, &entry_count_, sizeof entry_count_);
  out.insert(out.end(), bytes_.begin(), bytes_.end());
  return out;
}

DeviceStateLog DeviceStateLog::deserialize(std::span<const uint8_t> bytes) {
  sedspec::ByteReader r(bytes);
  SEDSPEC_CHECK_DECODE(r.u32() == kMagic, "bad state log magic");
  const uint64_t n = r.u64();
  DeviceStateLog log;
  size_t at = kHeaderSize;
  for (uint64_t i = 0; i < n; ++i) {
    SEDSPEC_CHECK_DECODE(at < bytes.size(), "state log entry past end");
    const size_t size = entry_size(bytes[at]);
    SEDSPEC_CHECK_DECODE(size != 0, "unknown state log entry kind");
    SEDSPEC_CHECK_DECODE(size <= bytes.size() - at, "truncated state log entry");
    log.round_starts_ +=
        bytes[at] == static_cast<uint8_t>(EntryKind::kRoundStart) ? 1 : 0;
    at += size;
  }
  log.bytes_.assign(bytes.begin() + kHeaderSize, bytes.begin() + at);
  log.entry_count_ = n;
  return log;
}

bool LogCursor::next(LogEntry& out) {
  while (at_ != end_) {
    decode_entry(at_, out);
    at_ += entry_size(*at_);
    if (out.kind == EntryKind::kRoundStart) {
      SEDSPEC_REQUIRE_MSG(!in_round_, "nested round in state log");
      in_round_ = true;
    } else if (out.kind == EntryKind::kRoundEnd) {
      SEDSPEC_REQUIRE_MSG(in_round_, "round end without start");
      in_round_ = false;
      return true;
    }
    if (in_round_) {
      return true;
    }
  }
  SEDSPEC_REQUIRE_MSG(!in_round_, "unterminated round in state log");
  return false;
}

void LogRecorder::set_site_filter(const std::set<SiteId>* filter) {
  filtered_ = filter != nullptr;
  planned_.clear();
  if (filter != nullptr && !filter->empty()) {
    planned_.resize(static_cast<size_t>(*filter->rbegin()) + 1);
    for (SiteId site : *filter) {
      planned_[site] = true;
    }
  }
}

void LogRecorder::round_start(const IoAccess& io) {
  log_.put(EntryKind::kRoundStart, static_cast<uint8_t>(io.space), io.addr,
           io.size, io.value, static_cast<uint8_t>(io.is_write ? 1 : 0));
}

void LogRecorder::site_enter(SiteId site, BlockKind kind) {
  if (filtered_ && kind == BlockKind::kPlain &&
      (site >= planned_.size() || !planned_[site])) {
    return;  // outside the observation plan
  }
  log_.put(EntryKind::kSiteEnter, site, static_cast<uint8_t>(kind));
}

void LogRecorder::branch(SiteId site, bool taken) {
  log_.put(EntryKind::kBranch, site, static_cast<uint8_t>(taken ? 1 : 0));
}

void LogRecorder::indirect(SiteId site, FuncAddr target) {
  log_.put(EntryKind::kIndirect, site, target);
}

void LogRecorder::command(SiteId site, uint64_t cmd) {
  log_.put(EntryKind::kCommand, site, cmd);
}

void LogRecorder::command_end(SiteId site) {
  log_.put(EntryKind::kCommandEnd, site);
}

void LogRecorder::param_change(ParamId param, uint64_t old_raw,
                               uint64_t new_raw) {
  log_.put(EntryKind::kParamChange, param, old_raw, new_raw);
}

void LogRecorder::round_end() { log_.put(EntryKind::kRoundEnd); }

std::string to_text(const LogEntry& e, const sedspec::DeviceProgram& program) {
  std::ostringstream out;
  switch (e.kind) {
    case EntryKind::kRoundStart:
      out << "round " << (e.io.is_write ? "write" : "read") << " "
          << (e.io.space == sedspec::IoSpace::kPio ? "pio" : "mmio") << " 0x"
          << std::hex << e.io.addr << std::dec << " value 0x" << std::hex
          << e.io.value << std::dec << "\n";
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
  return out.str();
}

std::string to_text(const DeviceStateLog& log,
                    const sedspec::DeviceProgram& program) {
  std::string out;
  LogCursor cursor(log);
  LogEntry e;
  while (cursor.next(e)) {
    out += to_text(e, program);
  }
  return out;
}

}  // namespace sedspec::statelog
