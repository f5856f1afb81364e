// StateArena — a control structure as a byte arena.
//
// Backs both sides of SEDSpec:
//  - a device's live control structure (out-of-bounds buffer stores corrupt
//    adjacent fields within the arena, just like the real C struct; escapes
//    beyond the arena are recorded as kStructEscape incidents and dropped);
//  - the ES-Checker's shadow device state (paper §V-A: "a separate data
//    structure ... initialized with the values from the emulated device
//    control structure upon booting"), where the same out-of-bounds event
//    is reported through EvalDiag and *also* applied within the arena so the
//    shadow models the corruption an exploit would cause (this is what lets
//    the indirect-jump check see a clobbered function pointer).
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "expr/eval.h"
#include "program/incident.h"
#include "program/layout.h"

namespace sedspec {

class StateArena final : public StateAccess {
 public:
  using IncidentFn = std::function<void(const Incident&)>;

  explicit StateArena(const StateLayout* layout);

  // StateAccess ---------------------------------------------------------
  [[nodiscard]] uint64_t param(ParamId id) const override;
  void set_param(ParamId id, uint64_t raw) override;
  uint64_t buf_load(ParamId id, uint64_t index, EvalDiag* diag) override;
  void buf_store(ParamId id, uint64_t index, uint64_t raw,
                 EvalDiag* diag) override;
  void buf_fill(ParamId id, uint64_t index, uint64_t count,
                EvalDiag* diag) override;
  bool local(LocalId id, uint64_t* out) const override;
  void set_local(LocalId id, uint64_t raw) override;
  [[nodiscard]] uint64_t buf_peek(ParamId id, uint64_t index) const override;

  // Arena management ------------------------------------------------------
  /// Zeroes the arena and clears locals.
  void reset();
  /// Locals live for one I/O round only.
  void clear_locals();
  /// Copies another arena's bytes (same layout required). Used to initialize
  /// the checker's shadow state from the device at boot, and to snapshot.
  void copy_from(const StateArena& other);

  [[nodiscard]] const StateLayout& layout() const { return *layout_; }
  [[nodiscard]] std::span<const uint8_t> bytes() const { return bytes_; }

  /// Direct (bounds-checked against the arena only) byte span of a buffer
  /// field — the device-native path for moving real data in and out.
  [[nodiscard]] std::span<uint8_t> buffer_span(ParamId id);
  [[nodiscard]] std::span<const uint8_t> buffer_span(ParamId id) const;

  /// Writable span for a bulk region previously validated by buf_fill; the
  /// region is clamped to the arena. Devices use this to copy actual data.
  [[nodiscard]] std::span<uint8_t> fill_region(ParamId id, uint64_t index,
                                               uint64_t count);

  /// Installed on device-side arenas: receives ground-truth incidents.
  void set_incident_fn(IncidentFn fn) { incident_fn_ = std::move(fn); }

  /// Convenience typed accessors (device-native reads/writes of own fields;
  /// no instrumentation semantics).
  [[nodiscard]] uint64_t get(ParamId id) const { return param(id); }
  void set(ParamId id, uint64_t raw) { set_param(id, raw); }

  /// The only scalar widths StateLayout::add_scalar()/add_funcptr() create.
  [[nodiscard]] static constexpr bool is_scalar_width(uint32_t size) {
    return size == 1 || size == 2 || size == 4 || size == 8;
  }

  /// Raw scalar access by pre-resolved offset/size, the one load/store
  /// every scalar and buffer-element access of this arena goes through.
  /// The compiled check engine and the instrumentation context's
  /// observation diff call it directly with offsets taken from this
  /// layout's own FieldDesc, skipping the per-access field lookup (the
  /// bytecode program re-verifies them against arena_size() when it
  /// attaches). Bytes are little-endian raw; the caller applies the
  /// field-type truncation set_param() would.
  ///
  /// `size` must satisfy is_scalar_width(): StateLayout creates no other
  /// scalar or element width, and the bytecode verifier rejects any other.
  /// Each width is a fixed-size memcpy, which compiles to a single
  /// unaligned-safe mov; a runtime-sized one is a libc call through a stack
  /// slot.
  [[nodiscard]] uint64_t load_scalar(uint32_t offset, uint32_t size) const {
    const uint8_t* src = bytes_.data() + offset;
    switch (size) {
      case 1:
        return *src;
      case 2:
        return load_fixed<uint16_t>(src);
      case 4:
        return load_fixed<uint32_t>(src);
      default:
        return load_fixed<uint64_t>(src);
    }
  }
  void store_scalar(uint32_t offset, uint32_t size, uint64_t raw) {
    uint8_t* dst = bytes_.data() + offset;
    switch (size) {
      case 1:
        *dst = static_cast<uint8_t>(raw);
        break;
      case 2:
        store_fixed(dst, static_cast<uint16_t>(raw));
        break;
      case 4:
        store_fixed(dst, static_cast<uint32_t>(raw));
        break;
      default:
        store_fixed(dst, raw);
        break;
    }
  }

 private:
  struct Resolved {
    bool in_bounds = false;     // within the field's own extent
    bool in_arena = false;      // within the whole structure
    int64_t byte_offset = 0;    // signed start offset within the arena
    uint64_t byte_len = 0;
  };

  /// Resolves element `index` (interpreted as signed, so negative indices
  /// reach *earlier* fields, as with a real C pointer) of buffer `id`.
  [[nodiscard]] Resolved resolve(ParamId id, uint64_t index,
                                 uint64_t count) const;

  void report(IncidentKind kind, ParamId field, uint64_t detail,
              const std::string& note) const;

  // Little-endian host, as load_scalar()/store_scalar() assume.
  template <typename T>
  [[nodiscard]] static T load_fixed(const uint8_t* src) {
    T v = 0;
    std::memcpy(&v, src, sizeof v);
    return v;
  }
  template <typename T>
  static void store_fixed(uint8_t* dst, T v) {
    std::memcpy(dst, &v, sizeof v);
  }

  const StateLayout* layout_;
  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> local_values_;
  std::vector<bool> local_set_;
  IncidentFn incident_fn_;
};

}  // namespace sedspec
