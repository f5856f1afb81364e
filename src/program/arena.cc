#include "program/arena.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"

namespace sedspec {

std::string incident_kind_name(IncidentKind k) {
  switch (k) {
    case IncidentKind::kOobWrite:
      return "oob-write";
    case IncidentKind::kOobRead:
      return "oob-read";
    case IncidentKind::kStructEscape:
      return "struct-escape";
    case IncidentKind::kHijackedCall:
      return "hijacked-call";
    case IncidentKind::kUseAfterFree:
      return "use-after-free";
    case IncidentKind::kRunawayLoop:
      return "runaway-loop";
    case IncidentKind::kDivByZero:
      return "div-by-zero";
  }
  return "?";
}

StateArena::StateArena(const StateLayout* layout)
    : layout_(layout),
      bytes_(layout->arena_size(), 0),
      local_values_(256, 0),
      local_set_(256, false) {
  SEDSPEC_REQUIRE(layout != nullptr);
}

uint64_t StateArena::param(ParamId id) const {
  const FieldDesc& f = layout_->field(id);
  SEDSPEC_REQUIRE_MSG(!f.is_buffer(), "param() on buffer field " + f.name);
  return load_scalar(f.offset, f.size);
}

void StateArena::set_param(ParamId id, uint64_t raw) {
  const FieldDesc& f = layout_->field(id);
  SEDSPEC_REQUIRE_MSG(!f.is_buffer(), "set_param() on buffer field " + f.name);
  store_scalar(f.offset, f.size, truncate_to(f.type, raw));
}

StateArena::Resolved StateArena::resolve(ParamId id, uint64_t index,
                                         uint64_t count) const {
  const FieldDesc& f = layout_->field(id);
  SEDSPEC_REQUIRE_MSG(f.is_buffer(), "buffer access to scalar field " + f.name);
  Resolved r;
  const auto sindex = static_cast<int64_t>(index);
  const auto scount = static_cast<int64_t>(count);
  r.byte_offset = static_cast<int64_t>(f.offset) + sindex * f.elem_size;
  r.byte_len = count * f.elem_size;
  r.in_bounds = sindex >= 0 && scount >= 0 &&
                sindex <= static_cast<int64_t>(f.count) &&
                sindex + scount <= static_cast<int64_t>(f.count) &&
                (count == 0 || sindex < static_cast<int64_t>(f.count));
  r.in_arena = r.byte_offset >= 0 &&
               r.byte_offset + static_cast<int64_t>(r.byte_len) <=
                   static_cast<int64_t>(bytes_.size());
  return r;
}

void StateArena::report(IncidentKind kind, ParamId field, uint64_t detail,
                        const std::string& note) const {
  if (incident_fn_) {
    incident_fn_(Incident{kind, field, detail, note});
  }
}

uint64_t StateArena::buf_load(ParamId id, uint64_t index, EvalDiag* diag) {
  const FieldDesc& f = layout_->field(id);
  const Resolved r = resolve(id, index, 1);
  if (!r.in_bounds) {
    if (diag != nullptr) {
      diag->record(EvalDiag::Kind::kBufferOob);
      if (diag->kind == EvalDiag::Kind::kBufferOob &&
          diag->buffer == kInvalidParam) {
        diag->buffer = id;
        diag->index = index;
        diag->oob_is_write = false;
      }
    }
    report(r.in_arena ? IncidentKind::kOobRead : IncidentKind::kStructEscape,
           id, index, "load " + f.name);
    if (!r.in_arena) {
      return 0;  // escaped the structure: real QEMU reads foreign heap
    }
  }
  return load_scalar(static_cast<uint32_t>(r.byte_offset), f.elem_size);
}

void StateArena::buf_store(ParamId id, uint64_t index, uint64_t raw,
                           EvalDiag* diag) {
  const FieldDesc& f = layout_->field(id);
  const Resolved r = resolve(id, index, 1);
  if (!r.in_bounds) {
    if (diag != nullptr) {
      diag->record(EvalDiag::Kind::kBufferOob);
      if (diag->kind == EvalDiag::Kind::kBufferOob &&
          diag->buffer == kInvalidParam) {
        diag->buffer = id;
        diag->index = index;
        diag->oob_is_write = true;
      }
    }
    report(r.in_arena ? IncidentKind::kOobWrite : IncidentKind::kStructEscape,
           id, index, "store " + f.name);
    if (!r.in_arena) {
      return;  // escaped the structure: dropped (real QEMU: heap corruption)
    }
  }
  // In-arena stores are applied even when out of the field's own bounds —
  // this is the adjacent-field corruption that exploits rely on.
  store_scalar(static_cast<uint32_t>(r.byte_offset), f.elem_size,
               truncate_to(f.type, raw));
}

void StateArena::buf_fill(ParamId id, uint64_t index, uint64_t count,
                          EvalDiag* diag) {
  const FieldDesc& f = layout_->field(id);
  const Resolved r = resolve(id, index, count);
  if (!r.in_bounds) {
    if (diag != nullptr) {
      diag->record(EvalDiag::Kind::kBufferOob);
      if (diag->kind == EvalDiag::Kind::kBufferOob &&
          diag->buffer == kInvalidParam) {
        diag->buffer = id;
        diag->index = index + (count > 0 ? count - 1 : 0);
        diag->oob_is_write = true;
      }
    }
    report(r.in_arena ? IncidentKind::kOobWrite : IncidentKind::kStructEscape,
           id, index, "fill " + f.name);
  }
  // Only the bytes landing OUTSIDE the buffer field's own extent matter to
  // the simulation (they overlay adjacent fields — the corruption exploits
  // rely on); zero exactly those. In-bounds payload bytes are data, never
  // control, so the common benign case costs nothing here. The device side
  // overwrites the real region with actual data via fill_region() anyway.
  const Resolved clamped = r;
  int64_t begin = std::max<int64_t>(clamped.byte_offset, 0);
  int64_t end =
      std::min<int64_t>(clamped.byte_offset + static_cast<int64_t>(r.byte_len),
                        static_cast<int64_t>(bytes_.size()));
  if (begin >= end) {
    return;
  }
  const auto field_begin = static_cast<int64_t>(f.offset);
  const auto field_end = static_cast<int64_t>(f.offset) + f.size;
  if (begin < field_begin) {
    const int64_t n = std::min(end, field_begin) - begin;
    std::memset(bytes_.data() + begin, 0, static_cast<size_t>(n));
  }
  if (end > field_end) {
    const int64_t lo = std::max(begin, field_end);
    std::memset(bytes_.data() + lo, 0, static_cast<size_t>(end - lo));
  }
}

std::span<uint8_t> StateArena::fill_region(ParamId id, uint64_t index,
                                           uint64_t count) {
  const Resolved r = resolve(id, index, count);
  int64_t begin = r.byte_offset;
  int64_t end = r.byte_offset + static_cast<int64_t>(r.byte_len);
  begin = std::max<int64_t>(begin, 0);
  end = std::min<int64_t>(end, static_cast<int64_t>(bytes_.size()));
  if (begin >= end) {
    return {};
  }
  return {bytes_.data() + begin, static_cast<size_t>(end - begin)};
}

uint64_t StateArena::buf_peek(ParamId id, uint64_t index) const {
  const FieldDesc& f = layout_->field(id);
  const Resolved r = resolve(id, index, 1);
  if (!r.in_bounds || !r.in_arena) {
    return 0;
  }
  return load_scalar(static_cast<uint32_t>(r.byte_offset), f.elem_size);
}

bool StateArena::local(LocalId id, uint64_t* out) const {
  if (id >= local_set_.size() || !local_set_[id]) {
    return false;
  }
  *out = local_values_[id];
  return true;
}

void StateArena::set_local(LocalId id, uint64_t raw) {
  SEDSPEC_REQUIRE(id < local_values_.size());
  local_values_[id] = raw;
  local_set_[id] = true;
}

void StateArena::reset() {
  std::fill(bytes_.begin(), bytes_.end(), 0);
  clear_locals();
}

void StateArena::clear_locals() {
  std::fill(local_set_.begin(), local_set_.end(), false);
}

void StateArena::copy_from(const StateArena& other) {
  SEDSPEC_REQUIRE(other.bytes_.size() == bytes_.size());
  bytes_ = other.bytes_;
}

std::span<uint8_t> StateArena::buffer_span(ParamId id) {
  const FieldDesc& f = layout_->field(id);
  SEDSPEC_REQUIRE(f.is_buffer());
  return {bytes_.data() + f.offset, f.size};
}

std::span<const uint8_t> StateArena::buffer_span(ParamId id) const {
  const FieldDesc& f = layout_->field(id);
  SEDSPEC_REQUIRE(f.is_buffer());
  return {bytes_.data() + f.offset, f.size};
}

}  // namespace sedspec
