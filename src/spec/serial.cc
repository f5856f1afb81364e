#include "spec/serial.h"

#include "common/crc32.h"
#include "common/decode.h"

namespace sedspec::spec {

namespace {

constexpr uint32_t kMagic = 0x53455343u;  // "SESC"

/// Corrupt payloads could otherwise nest unary/cast chains deep enough to
/// overflow the stack; no legitimate device expression comes close.
constexpr int kMaxExprDepth = 256;

void put_u32_at(std::vector<uint8_t>& bytes, size_t pos, uint32_t v) {
  bytes[pos + 0] = static_cast<uint8_t>(v);
  bytes[pos + 1] = static_cast<uint8_t>(v >> 8);
  bytes[pos + 2] = static_cast<uint8_t>(v >> 16);
  bytes[pos + 3] = static_cast<uint8_t>(v >> 24);
}

uint32_t get_u32_at(std::span<const uint8_t> bytes, size_t pos) {
  return static_cast<uint32_t>(bytes[pos]) |
         (static_cast<uint32_t>(bytes[pos + 1]) << 8) |
         (static_cast<uint32_t>(bytes[pos + 2]) << 16) |
         (static_cast<uint32_t>(bytes[pos + 3]) << 24);
}

LoadError fail(LoadStatus status, std::string detail) {
  LoadError e;
  e.status = status;
  e.detail = std::move(detail);
  return e;
}

template <typename Enum>
Enum decode_enum(uint8_t raw, Enum max, const char* what) {
  SEDSPEC_CHECK_DECODE(raw <= static_cast<uint8_t>(max), what);
  return static_cast<Enum>(raw);
}

ExprRef read_expr_at(sedspec::ByteReader& r, int depth);

}  // namespace

std::string load_status_name(LoadStatus s) {
  switch (s) {
    case LoadStatus::kOk:
      return "ok";
    case LoadStatus::kTooShort:
      return "too short";
    case LoadStatus::kBadMagic:
      return "bad magic";
    case LoadStatus::kVersionSkew:
      return "version skew";
    case LoadStatus::kLengthMismatch:
      return "length mismatch";
    case LoadStatus::kCrcMismatch:
      return "crc mismatch";
    case LoadStatus::kMalformed:
      return "malformed payload";
    case LoadStatus::kDeviceMismatch:
      return "device mismatch";
  }
  return "?";
}

std::string LoadError::describe() const {
  std::string out = load_status_name(status);
  if (!detail.empty()) {
    out += ": " + detail;
  }
  return out;
}

void write_expr(sedspec::ByteWriter& w, const ExprRef& e) {
  if (e == nullptr) {
    w.u8(0xff);
    return;
  }
  w.u8(static_cast<uint8_t>(e->kind));
  w.u8(static_cast<uint8_t>(e->type));
  switch (e->kind) {
    case sedspec::ExprKind::kConst:
      w.u64(e->const_value);
      break;
    case sedspec::ExprKind::kParam:
      w.u16(e->param);
      break;
    case sedspec::ExprKind::kLocal:
      w.u16(e->local);
      break;
    case sedspec::ExprKind::kIoField:
      w.u8(static_cast<uint8_t>(e->io_field));
      break;
    case sedspec::ExprKind::kBufLoad:
      w.u16(e->param);
      write_expr(w, e->lhs);
      break;
    case sedspec::ExprKind::kUnary:
      w.u8(static_cast<uint8_t>(e->un_op));
      write_expr(w, e->lhs);
      break;
    case sedspec::ExprKind::kBinary:
      w.u8(static_cast<uint8_t>(e->bin_op));
      write_expr(w, e->lhs);
      write_expr(w, e->rhs);
      break;
    case sedspec::ExprKind::kCast:
      write_expr(w, e->lhs);
      break;
  }
}

namespace {

ExprRef read_expr_at(sedspec::ByteReader& r, int depth) {
  SEDSPEC_CHECK_DECODE(depth < kMaxExprDepth, "expression nests too deep");
  const uint8_t tag = r.u8();
  if (tag == 0xff) {
    return nullptr;
  }
  sedspec::Expr e;
  e.kind = decode_enum(tag, sedspec::ExprKind::kCast, "bad expression tag");
  e.type = decode_enum(r.u8(), sedspec::IntType::kI64, "bad expression type");
  switch (e.kind) {
    case sedspec::ExprKind::kConst:
      e.const_value = r.u64();
      break;
    case sedspec::ExprKind::kParam:
      e.param = r.u16();
      break;
    case sedspec::ExprKind::kLocal:
      e.local = r.u16();
      break;
    case sedspec::ExprKind::kIoField:
      e.io_field =
          decode_enum(r.u8(), sedspec::IoField::kSpace, "bad I/O field tag");
      break;
    case sedspec::ExprKind::kBufLoad:
      e.param = r.u16();
      e.lhs = read_expr_at(r, depth + 1);
      break;
    case sedspec::ExprKind::kUnary:
      e.un_op = decode_enum(r.u8(), sedspec::UnaryOp::kLogicalNot,
                            "bad unary operator");
      e.lhs = read_expr_at(r, depth + 1);
      break;
    case sedspec::ExprKind::kBinary:
      e.bin_op =
          decode_enum(r.u8(), sedspec::BinaryOp::kLOr, "bad binary operator");
      e.lhs = read_expr_at(r, depth + 1);
      e.rhs = read_expr_at(r, depth + 1);
      break;
    case sedspec::ExprKind::kCast:
      e.lhs = read_expr_at(r, depth + 1);
      break;
  }
  return std::make_shared<const sedspec::Expr>(std::move(e));
}

}  // namespace

ExprRef read_expr(sedspec::ByteReader& r) { return read_expr_at(r, 0); }

void write_stmt(sedspec::ByteWriter& w, const sedspec::Stmt& s) {
  w.u8(static_cast<uint8_t>(s.kind));
  w.u16(s.param);
  w.u16(s.local);
  write_expr(w, s.value);
  write_expr(w, s.index);
  write_expr(w, s.count);
  w.str(s.note);
}

sedspec::Stmt read_stmt(sedspec::ByteReader& r) {
  sedspec::Stmt s;
  s.kind =
      decode_enum(r.u8(), sedspec::StmtKind::kBufFill, "bad statement kind");
  s.param = r.u16();
  s.local = r.u16();
  s.value = read_expr(r);
  s.index = read_expr(r);
  s.count = read_expr(r);
  s.note = r.str();
  return s;
}

namespace {

void write_cond_dir(sedspec::ByteWriter& w, const CondDir& d) {
  w.u8(d.observed ? 1 : 0);
  w.u8(d.ends ? 1 : 0);
  w.u16(d.succ);
}

CondDir read_cond_dir(sedspec::ByteReader& r) {
  CondDir d;
  d.observed = r.u8() != 0;
  d.ends = r.u8() != 0;
  d.succ = r.u16();
  return d;
}

void write_payload(sedspec::ByteWriter& w, const EsCfg& cfg) {
  w.str(cfg.device_name);
  w.u64(cfg.trained_rounds);
  w.u64(cfg.blocks_before_reduction);
  w.u64(cfg.merged_conditionals);
  w.u64(cfg.spliced_blocks);

  w.u32(static_cast<uint32_t>(cfg.params.size()));
  for (ParamId p : cfg.params) {
    w.u16(p);
  }

  w.u32(static_cast<uint32_t>(cfg.entry_dispatch.size()));
  for (const auto& [key, site] : cfg.entry_dispatch) {
    w.u8(static_cast<uint8_t>(key.space));
    w.u64(key.addr);
    w.u8(key.is_write ? 1 : 0);
    w.u16(site);
  }

  w.u32(static_cast<uint32_t>(cfg.blocks.size()));
  for (const auto& [site, b] : cfg.blocks) {
    w.u16(site);
    w.u8(static_cast<uint8_t>(b.kind));
    w.str(b.name);
    w.u32(static_cast<uint32_t>(b.dsod.size()));
    for (const auto& s : b.dsod) {
      write_stmt(w, s);
    }
    write_expr(w, b.guard);
    write_expr(w, b.cmd_expr);
    write_cond_dir(w, b.taken);
    write_cond_dir(w, b.not_taken);
    w.u8(b.has_succ ? 1 : 0);
    w.u16(b.succ);
    w.u8(b.ends ? 1 : 0);
    w.u16(b.fp_param);
    w.u32(static_cast<uint32_t>(b.fp_targets.size()));
    for (FuncAddr t : b.fp_targets) {
      w.u64(t);
    }
    w.u64(b.max_visits_per_round);
    w.u8(b.merged ? 1 : 0);
    w.u32(static_cast<uint32_t>(b.cmd_dispatch.size()));
    for (const auto& [cmd, d] : b.cmd_dispatch) {
      w.u64(cmd);
      write_cond_dir(w, d);
    }
  }

  w.u32(static_cast<uint32_t>(cfg.commands.size()));
  for (const auto& [cmd, ci] : cfg.commands) {
    w.u64(cmd);
    w.u32(static_cast<uint32_t>(ci.access.size()));
    for (SiteId s : ci.access) {
      w.u16(s);
    }
    w.u64(ci.observed);
  }

  w.u32(static_cast<uint32_t>(cfg.sync_locals.size()));
  for (LocalId l : cfg.sync_locals) {
    w.u16(l);
  }
}

EsCfg read_payload(std::span<const uint8_t> payload) {
  sedspec::ByteReader r(payload);
  EsCfg cfg;
  cfg.device_name = r.str();
  cfg.trained_rounds = r.u64();
  cfg.blocks_before_reduction = r.u64();
  cfg.merged_conditionals = r.u64();
  cfg.spliced_blocks = r.u64();

  const uint32_t n_params = r.u32();
  for (uint32_t i = 0; i < n_params; ++i) {
    cfg.params.push_back(r.u16());
  }

  const uint32_t n_entries = r.u32();
  for (uint32_t i = 0; i < n_entries; ++i) {
    IoKey key;
    key.space =
        decode_enum(r.u8(), sedspec::IoSpace::kMmio, "bad I/O space tag");
    key.addr = r.u64();
    key.is_write = r.u8() != 0;
    cfg.entry_dispatch[key] = r.u16();
  }

  const uint32_t n_blocks = r.u32();
  for (uint32_t i = 0; i < n_blocks; ++i) {
    const SiteId site = r.u16();
    EsBlock b;
    b.site = site;
    b.kind = decode_enum(r.u8(), BlockKind::kCmdEnd, "bad block kind");
    b.name = r.str();
    const uint32_t n_stmts = r.u32();
    for (uint32_t j = 0; j < n_stmts; ++j) {
      b.dsod.push_back(read_stmt(r));
    }
    b.guard = read_expr(r);
    b.cmd_expr = read_expr(r);
    b.taken = read_cond_dir(r);
    b.not_taken = read_cond_dir(r);
    b.has_succ = r.u8() != 0;
    b.succ = r.u16();
    b.ends = r.u8() != 0;
    b.fp_param = r.u16();
    const uint32_t n_targets = r.u32();
    for (uint32_t j = 0; j < n_targets; ++j) {
      b.fp_targets.insert(r.u64());
    }
    b.max_visits_per_round = r.u64();
    b.merged = r.u8() != 0;
    const uint32_t n_dispatch = r.u32();
    for (uint32_t j = 0; j < n_dispatch; ++j) {
      const uint64_t cmd = r.u64();
      b.cmd_dispatch[cmd] = read_cond_dir(r);
    }
    cfg.blocks.emplace(site, std::move(b));
  }

  const uint32_t n_cmds = r.u32();
  for (uint32_t i = 0; i < n_cmds; ++i) {
    const uint64_t cmd = r.u64();
    CmdInfo ci;
    const uint32_t n_access = r.u32();
    for (uint32_t j = 0; j < n_access; ++j) {
      ci.access.insert(r.u16());
    }
    ci.observed = r.u64();
    cfg.commands.emplace(cmd, std::move(ci));
  }

  const uint32_t n_sync = r.u32();
  for (uint32_t i = 0; i < n_sync; ++i) {
    cfg.sync_locals.insert(r.u16());
  }
  SEDSPEC_CHECK_DECODE(r.done(), "trailing bytes after ES-CFG");
  return cfg;
}

}  // namespace

std::vector<uint8_t> serialize(const EsCfg& cfg) {
  return seal_envelope(kMagic, kSpecFormatVersion,
                       [&](sedspec::ByteWriter& w) { write_payload(w, cfg); });
}

void reseal(std::vector<uint8_t>& bytes) {
  if (bytes.size() < kSpecEnvelopeSize) {
    return;
  }
  const std::span<const uint8_t> payload{bytes.data() + kSpecEnvelopeSize,
                                         bytes.size() - kSpecEnvelopeSize};
  put_u32_at(bytes, 8, static_cast<uint32_t>(payload.size()));
  put_u32_at(bytes, 12, crc32(payload));
}

LoadError open_envelope(std::span<const uint8_t> bytes, uint32_t magic,
                        uint32_t version, std::string_view artifact,
                        std::span<const uint8_t>& payload) {
  if (bytes.size() < kSpecEnvelopeSize) {
    return fail(LoadStatus::kTooShort,
                std::string(artifact) + " holds " +
                    std::to_string(bytes.size()) + " bytes, envelope needs " +
                    std::to_string(kSpecEnvelopeSize));
  }
  if (get_u32_at(bytes, 0) != magic) {
    return fail(LoadStatus::kBadMagic, "not a " + std::string(artifact));
  }
  const uint32_t found = get_u32_at(bytes, 4);
  if (found != version) {
    return fail(LoadStatus::kVersionSkew,
                std::string(artifact) + " format v" + std::to_string(found) +
                    ", loader is v" + std::to_string(version));
  }
  const std::span<const uint8_t> body = bytes.subspan(kSpecEnvelopeSize);
  if (get_u32_at(bytes, 8) != body.size()) {
    return fail(LoadStatus::kLengthMismatch,
                "envelope claims " + std::to_string(get_u32_at(bytes, 8)) +
                    " payload bytes, " + std::to_string(body.size()) +
                    " present");
  }
  if (get_u32_at(bytes, 12) != crc32(body)) {
    return fail(LoadStatus::kCrcMismatch,
                std::string(artifact) + " payload integrity check failed");
  }
  payload = body;
  return LoadError{};
}

LoadResult load(std::span<const uint8_t> bytes) {
  LoadResult out;
  std::span<const uint8_t> payload;
  out.error =
      open_envelope(bytes, kMagic, kSpecFormatVersion, "spec", payload);
  if (!out.error.ok()) {
    return out;
  }
  try {
    out.cfg = read_payload(payload);
  } catch (const sedspec::DecodeError& e) {
    out.error = fail(LoadStatus::kMalformed, e.what());
  }
  return out;
}

EsCfg deserialize(std::span<const uint8_t> bytes) {
  LoadResult r = load(bytes);
  SEDSPEC_CHECK_DECODE(r.ok(), r.error.describe());
  return std::move(*r.cfg);
}

}  // namespace sedspec::spec
