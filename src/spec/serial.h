// ES-CFG persistence.
//
// An execution specification is generated offline (phases 1-2 of the paper)
// and deployed into the hypervisor for runtime protection (phase 3), so it
// must round-trip through a byte format — and survive that trip through
// hostile storage. The byte stream carries an integrity envelope:
//
//   u32 magic ("SESC")  u32 format version  u32 payload length
//   u32 crc32(payload)  payload...
//
// so a bit-flipped, truncated, or version-skewed specification is rejected
// at load time with a structured LoadError instead of being deployed (or
// aborting the VMM). Expressions and statements are serialized structurally
// inside the payload; every enum tag is range-validated on decode.
//
// Two load APIs:
//   load()        — returns LoadResult{cfg | LoadError}; never throws on
//                   corrupt input. The deploy-time entry point.
//   deserialize() — fail-fast convenience: throws DecodeError on any
//                   malformed input. For pipelines that already sit inside
//                   a containment domain.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "spec/es_cfg.h"

namespace sedspec::spec {

/// Why a serialized specification was rejected.
enum class LoadStatus : uint8_t {
  kOk = 0,
  kTooShort,        // buffer smaller than the envelope
  kBadMagic,        // not an ES-CFG artifact
  kVersionSkew,     // produced by an incompatible format version
  kLengthMismatch,  // envelope payload length != bytes present
  kCrcMismatch,     // payload failed the CRC32 integrity check
  kMalformed,       // envelope intact but payload structurally invalid
  kDeviceMismatch,  // spec names a different device (deploy-time check)
};

[[nodiscard]] std::string load_status_name(LoadStatus s);

struct LoadError {
  LoadStatus status = LoadStatus::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const { return status == LoadStatus::kOk; }
  [[nodiscard]] std::string describe() const;
};

struct LoadResult {
  std::optional<EsCfg> cfg;
  LoadError error;

  [[nodiscard]] bool ok() const { return cfg.has_value(); }
};

/// Current on-disk format version (bumped when the payload layout changes).
inline constexpr uint32_t kSpecFormatVersion = 2;

/// Envelope size in bytes (magic + version + length + crc).
inline constexpr size_t kSpecEnvelopeSize = 16;

/// Serializes an expression tree (nullptr allowed).
void write_expr(sedspec::ByteWriter& w, const ExprRef& e);
[[nodiscard]] ExprRef read_expr(sedspec::ByteReader& r);

void write_stmt(sedspec::ByteWriter& w, const sedspec::Stmt& s);
[[nodiscard]] sedspec::Stmt read_stmt(sedspec::ByteReader& r);

[[nodiscard]] std::vector<uint8_t> serialize(const EsCfg& cfg);
[[nodiscard]] EsCfg deserialize(std::span<const uint8_t> bytes);

/// Structured, non-throwing load: validates the integrity envelope, then
/// decodes the payload. Corrupt input yields a LoadError, never an abort.
[[nodiscard]] LoadResult load(std::span<const uint8_t> bytes);

/// Recomputes the envelope's length and CRC fields over the current payload
/// bytes (fault-injection / tooling helper: corrupt the payload, reseal the
/// envelope, and the structural decoder — not the CRC — is what gets
/// exercised). No-op on buffers smaller than the envelope.
void reseal(std::vector<uint8_t>& bytes);

/// The integrity envelope every persisted artifact (spec, spec store,
/// rollout record) shares; only the magic and the format version differ.
/// seal_envelope() writes magic, version and the length/CRC slots, appends
/// whatever `write_payload(w)` writes, then fills the slots (reseal()).
template <typename WritePayload>
[[nodiscard]] std::vector<uint8_t> seal_envelope(uint32_t magic,
                                                 uint32_t version,
                                                 WritePayload&& write_payload) {
  sedspec::ByteWriter w;
  w.u32(magic);
  w.u32(version);
  w.u32(0);  // payload length, filled by reseal()
  w.u32(0);  // payload crc32, filled by reseal()
  write_payload(w);
  std::vector<uint8_t> bytes = w.take();
  reseal(bytes);
  return bytes;
}

/// Validates an envelope in order (size, magic, version, length, CRC) and
/// points `payload` at the bytes after it. The first failing check decides
/// the LoadStatus; `artifact` names the artifact in the detail text.
[[nodiscard]] LoadError open_envelope(std::span<const uint8_t> bytes,
                                      uint32_t magic, uint32_t version,
                                      std::string_view artifact,
                                      std::span<const uint8_t>& payload);

}  // namespace sedspec::spec
