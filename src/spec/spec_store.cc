#include "spec/spec_store.h"

#include "common/bytes.h"

namespace sedspec::spec {

namespace {

constexpr uint32_t kStoreMagic = 0x53535452u;  // "SSTR"

LoadError fail(LoadStatus status, std::string detail) {
  LoadError e;
  e.status = status;
  e.detail = std::move(detail);
  return e;
}

}  // namespace

SnapshotRef SpecStore::publish(EsCfg cfg) {
  std::lock_guard lock(mu_);
  auto snap = std::make_shared<SpecSnapshot>();
  snap->device_name = cfg.device_name;
  auto it = specs_.find(snap->device_name);
  snap->version = it == specs_.end() ? 1 : it->second->version + 1;
  snap->cfg = std::move(cfg);
  SnapshotRef ref = snap;
  specs_[ref->device_name] = ref;
  ++publishes_;
  return ref;
}

SnapshotRef SpecStore::current(const std::string& device_name) const {
  std::lock_guard lock(mu_);
  auto it = specs_.find(device_name);
  return it == specs_.end() ? nullptr : it->second;
}

uint64_t SpecStore::version_of(const std::string& device_name) const {
  std::lock_guard lock(mu_);
  auto it = specs_.find(device_name);
  return it == specs_.end() ? 0 : it->second->version;
}

std::vector<std::string> SpecStore::device_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, snap] : specs_) {
    out.push_back(name);
  }
  return out;
}

size_t SpecStore::size() const {
  std::lock_guard lock(mu_);
  return specs_.size();
}

uint64_t SpecStore::publish_count() const {
  std::lock_guard lock(mu_);
  return publishes_;
}

std::vector<uint8_t> SpecStore::serialize() const {
  std::lock_guard lock(mu_);
  return seal_envelope(
      kStoreMagic, kStoreFormatVersion, [&](sedspec::ByteWriter& w) {
        w.u32(static_cast<uint32_t>(specs_.size()));
        for (const auto& [name, snap] : specs_) {
          w.str(name);
          w.u64(snap->version);
          w.varbytes(spec::serialize(snap->cfg));
        }
      });
}

LoadError SpecStore::load(std::span<const uint8_t> bytes, SpecStore& out) {
  std::span<const uint8_t> payload;
  if (LoadError e = open_envelope(bytes, kStoreMagic, kStoreFormatVersion,
                                  "spec store", payload);
      !e.ok()) {
    return e;
  }

  // Envelope intact: decode the entry list. ByteReader throws DecodeError
  // on truncation/overrun; any nested spec is validated by spec::load
  // (its own envelope + structural decode).
  std::map<std::string, SnapshotRef> restored;
  try {
    sedspec::ByteReader r(payload);
    const uint32_t count = r.u32();
    for (uint32_t i = 0; i < count; ++i) {
      const std::string name = r.str();
      const uint64_t snap_version = r.u64();
      const std::vector<uint8_t> spec_bytes = r.varbytes();
      LoadResult nested = spec::load(spec_bytes);
      if (!nested.ok()) {
        LoadError e = nested.error;
        e.detail = "spec '" + name + "': " + e.detail;
        return e;
      }
      if (nested.cfg->device_name != name) {
        return fail(LoadStatus::kMalformed,
                    "store entry '" + name + "' wraps a spec for '" +
                        nested.cfg->device_name + "'");
      }
      if (snap_version == 0 || restored.contains(name)) {
        return fail(LoadStatus::kMalformed,
                    "store entry '" + name + "' has " +
                        (snap_version == 0 ? "version 0"
                                           : "a duplicate device name"));
      }
      auto snap = std::make_shared<SpecSnapshot>();
      snap->device_name = name;
      snap->version = snap_version;
      snap->cfg = std::move(*nested.cfg);
      restored.emplace(name, std::move(snap));
    }
    if (r.remaining() != 0) {
      return fail(LoadStatus::kMalformed,
                  std::to_string(r.remaining()) +
                      " trailing bytes after the last store entry");
    }
  } catch (const sedspec::DecodeError& e) {
    return fail(LoadStatus::kMalformed, e.what());
  }

  std::lock_guard lock(out.mu_);
  if (!out.specs_.empty()) {
    return fail(LoadStatus::kMalformed,
                "load target store is not empty");
  }
  out.specs_ = std::move(restored);
  out.publishes_ = out.specs_.size();
  LoadError ok;
  return ok;
}

}  // namespace sedspec::spec
